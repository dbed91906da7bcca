"""Certified continued fractions and the inhomogeneous two-term
reduction, plus the odd-order pipeline from certified roots to the
reduced index bound R_k.

The continued fraction of an enclosed real is certified on integers:
the integer endpoints X -/+ R of its Ball are read once at one scale
2^-S (_endpoints, by Ball.to_disk) and expanded by one simultaneous
Euclid.  The reals sharing a partial quotient prefix form an interval,
so quotients common to both expansions hold for every value inside;
the Euclid stops at the first quotient where they disagree and drops
the last common one, which the double representation of a rational
can change.

The reduction step: for tau, mu, A > 0, B > 1 and a convergent p/q of
tau with q > 6M, set eps = ||mu q|| - M ||tau q|| (||.|| = distance to
the nearest integer).  When eps > 0, any solution of
0 < |u tau - v + mu| < A B^(-w) with 0 < u <= M forces
w < log(A q / eps) / log B.  eps is bounded exactly on the endpoint
integers of tau and mu, and the outcome's eps is the Ball of that
integer interval.  R is the
largest n with B^n <= A q / eps, decided by effbounds.log_floor at the
upper bound of A and the lower bounds of eps and B, so the exclusion
survives every enclosure outcome.

The odd-order pipeline refines one root, gamma_s, the lower member of
the smallest pair, which root system order makes root k - 1, and its
weight, which give tau, mu and A.  odd_k_reduce takes the root
system certified at the default precision, usually cached, and refines
only gamma_s to reduction-grade precision (spectra.refine_root), not
every root class.  B = |r_{k-3}| / |gamma_s| is the Ball of the exact
quotient of the certified modulus intervals (RootSystem.mod_lo and
mod_hi); R and the small-linear-form test read only its lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .ball import Ball
from .effbounds import log_floor
from .precision import (
    PREC_START,
    PrecisionExhausted,
    ReductionExhausted,
    escalate,
    sig_str,
)
from .spectra import RootSystem, refine_root, solve_roots

DEFAULT_M = 3 * 10 ** 47
MAX_ATTEMPTS = 40


@dataclass(frozen=True)
class CFExpansion:
    partial_quotients: tuple
    convergents: tuple  # ((p, q), ...) coprime, q nondecreasing (strict from index 1)
    source: Ball  # the enclosure expanded: the input, or its last refinement


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
        """The outcome as a JSON-ready dict; epsilon is its midpoint to
        max(6, floor(0.30103 prec) + 2) significant digits and its radius
        to 6 (precision.sig_str)."""
        eps = self.epsilon
        digits = max(6, int(eps.prec * 0.30103) + 2)
        out = {
            "q_used": str(Decimal(self.q_used)),
            "m_index": self.m_index,
            "epsilon": {"mid": sig_str(eps.fr_mid(), digits),
                        "rad": sig_str((eps.fr_hi() - eps.fr_lo()) / 2, 6)},
            "R": self.R,
            "attempts": self.attempts,
        }
        if self.k is not None:
            out["k"] = self.k
        if self.certifications:
            out["certifications"] = dict(self.certifications)
            out["nonvanishing_certified"] = self.nonvanishing_certified
        return out


def _endpoints(*balls):
    """(S, [(lo, hi), ...]): the exact endpoints of each real Ball in
    units of 2^-S, S >= 1 the finest of their scales, read off the
    integer disks (Ball.to_disk)."""
    if any(b.is_complex for b in balls):
        raise TypeError("real-only operation on a complex ball")
    S = max([1] + [b.Q for b in balls])
    disks = [b.to_disk(S) for b in balls]
    return S, [(X - R, X + R) for X, _, R, _ in disks]


def _abs_range(lo: int, hi: int):
    """(min, max) of |t| over lo <= t <= hi."""
    return lo if lo > 0 else (-hi if hi < 0 else 0), max(-lo, hi)


def _common_quotients(lo: int, hi: int, den: int) -> list:
    """The partial quotients certified for every value in [lo, hi] / den,
    by the simultaneous Euclid of the module docstring, which also stops
    where either expansion ends; all of them when lo == hi."""
    out = []
    a, b, c, d = lo, den, hi, den
    while b and d:
        q = a // b
        if q != c // d:
            break
        out.append(q)
        a, b, c, d = b, a - q * b, d, c - q * d
    return out if lo == hi else out[:-1]


def _convergents(quotients):
    convs, p0, p1, q0, q1 = [], 0, 1, 1, 0
    for a in quotients:
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
        convs.append((p1, q1))
    return convs


def cf_expand(x: Ball, q_target: int, refine=None) -> CFExpansion:
    """Expand until a certified convergent denominator exceeds q_target.

    The endpoints of x, read as integers, are expanded together
    (_common_quotients).  refine(prec) -> Ball supplies a tighter
    enclosure when the certified prefix runs out; without it, exhaustion
    raises PrecisionExhausted.
    """
    if q_target < 1:
        raise ValueError(f"q_target must be >= 1, got {q_target}")
    while True:
        S, [(lo, hi)] = _endpoints(x)
        quots = _common_quotients(lo, hi, 1 << S)
        convs = _convergents(quots)
        if convs and convs[-1][1] > q_target:
            return CFExpansion(partial_quotients=tuple(quots),
                               convergents=tuple(convs),
                               source=x)
        if refine is None:
            raise PrecisionExhausted(
                f"certified quotients exhausted at q={convs[-1][1] if convs else 0} "
                f"< target {q_target} with prec {x.prec} and no refiner")
        x = refine(escalate(x.prec))


def dp_reduce(inst: ReductionInstance, refine=None) -> ReductionOutcome:
    """First convergent past 6M with certified eps > 0; advances through
    later convergents on eps <= 0, raising ReductionExhausted after
    MAX_ATTEMPTS of them.  |tau q - p| is bounded on the tau that the
    convergents were expanded from (CFExpansion.source, refined or not),
    and a longer expansion starts from that tau."""
    threshold = 6 * inst.M
    tau, target, tried, attempts = inst.tau, threshold, 0, 0
    while True:
        cf = cf_expand(tau, target, refine)
        tau, convs = cf.source, cf.convergents
        S, [(t_lo, t_hi), (m_lo, m_hi)] = _endpoints(tau, inst.mu)
        one = 1 << S
        for idx in range(tried, len(convs)):
            p, q = convs[idx]
            if q <= threshold:
                continue
            attempts += 1
            dt_lo, dt_hi = _abs_range(t_lo * q - (p << S), t_hi * q - (p << S))
            # ||mu q|| lies in [d_lo, min(d_hi, 1/2)] for |mu q - n0| in
            # [d_lo, d_hi], n0 the integer nearest the midpoint: the next
            # integer over is at least 1 - d_hi >= d_lo away.
            a, b = m_lo * q, m_hi * q
            n0 = (a + b + one) >> (S + 1) << S
            d_lo, d_hi = _abs_range(a - n0, b - n0)
            e_lo = d_lo - inst.M * dt_hi
            e_hi = min(d_hi, one >> 1) - inst.M * dt_lo
            if e_lo > 0:
                eps = Ball.from_disk(e_lo + e_hi, 0, e_hi - e_lo, S + 1, tau.prec)
                r_bound = log_floor(inst.A.fr_hi() * Fraction(q << S, e_lo), inst.B.fr_lo())
                return ReductionOutcome(q_used=q, m_index=idx, epsilon=eps,
                                        R=r_bound, attempts=attempts)
            if attempts >= MAX_ATTEMPTS:
                raise ReductionExhausted(
                    f"{attempts} convergents past 6M={threshold} all failed "
                    f"eps > 0; perturb M")
        tried, target = len(convs), convs[-1][1] * 16


# -- odd-order pipeline -----------------------------------------------------

def odd_k_instance(rs: RootSystem, M: int, prec: int | None = None) -> ReductionInstance:
    """Reduction data for odd k: with gamma_s the negative-imaginary
    member of the smallest-modulus pair, root k - 1, and g its Binet
    weight,

        tau = -2 arg(gamma_s) / pi        mu = 2 arg(g) / pi
        A   = 1 / |g|                     B = |root k-3| / |gamma_s|

    gamma_s is rs's root refined to prec bits by refine_root when rs is
    coarser, g is g_k over the disk it is built from, and tau, mu and A
    are at its precision; B is the Ball of the exact interval
    [mod_lo[k-3] / mod_hi[k-1], mod_hi[k-3] / mod_lo[k-1]], from the
    certified modulus intervals of rs.  For odd k every class below gamma
    is a pair, and spectra._certify emits the smallest last, as its upper
    disk and then the mirror, so root k - 1 is the lower member: its
    certified disk (X, -|Y|, R) is disjoint from its mirror, so |Y| > R.

    The published ranges tau in [1.59, 1.99] and mu in [0.700657, 1.9927]
    are checked and recorded (not gated: k = 5 lands just below the tau
    floor).  The branch never switches: Im gamma_s < 0 certifies tau in
    (0, 2), and the conjugate's tau lies in (-2, 0), outside the range;
    branch_switched stays in the record as false.  Two side conditions
    are also certified at n = k^3 + 2: the linear form stays below 1/2,
    and the positive-shift variant is excluded, tau n > mu + A B^(-n).
    Certification orders |r_{k-3}| > |gamma_s|, so B > 1 and the shift
    term A B^(-n) is below A; tau n > mu + A is the test decided.
    """
    k = rs.k
    if k % 2 == 0:
        raise ValueError(f"odd-order instance needs odd k, got {k}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    prec = rs.prec if prec is None else prec
    gamma_s, gval = refine_root(rs, k - 1, prec)
    p = gamma_s.prec
    pi_ball = Ball.pi(p)
    tau = gamma_s.arg() * (-2) / pi_ball
    mu = gval.arg() * 2 / pi_ball
    a_ball = Ball.exact(1, p) / gval.magnitude()
    b_lo = Fraction(rs.mod_lo[k - 3], rs.mod_hi[k - 1])
    b_hi = Fraction(rs.mod_hi[k - 3], rs.mod_lo[k - 1])
    b_ball = Ball.exact((b_lo + b_hi) / 2, rs.prec).add_error((b_hi - b_lo) / 2)

    certs = {}
    certs["tau_in_range"] = bool(
        tau.gt(Fraction(159, 100)) and tau.lt(Fraction(199, 100)))
    # Im gamma_s < 0 puts tau in (0, 2) and the conjugate's in (-2, 0).
    certs["branch_switched"] = False
    certs["mu_in_range"] = bool(
        mu.gt(Fraction(700657, 1000000)) and mu.lt(Fraction(19927, 10000)))

    n = k ** 3 + 2
    certs["small_linear_form"] = n > log_floor((a_ball * pi_ball * 2).fr_hi(),
                                               b_ball.fr_lo())
    certs["positive_shift_excluded"] = bool((tau * n).gt(mu + a_ball))

    return ReductionInstance(tau=tau, mu=mu, A=a_ball, B=b_ball, M=M,
                             certifications=certs)


def working_prec_for(M: int) -> int:
    """Decimal digits of M plus 60, in bits, floored at the default.  The
    digits are counted by Decimal: str(int) refuses values past 4300
    digits (Python 3.11+)."""
    digits = Decimal(abs(M)).adjusted() + 61
    return max(PREC_START, int(digits * 3.3220) + 32)


def odd_k_reduce(k: int, M: int = DEFAULT_M) -> ReductionOutcome:
    """Compose odd_k_instance and dp_reduce at reduction-grade precision;
    the returned outcome carries k, the recorded range/side-condition
    certifications, and the nonvanishing flag (eps > 0 certifies
    u tau - v + mu != 0 for every 0 < u <= M).  The roots come from one
    solve_roots(k) at the default precision, usually a cache hit, and
    the instance and each tau that dp_reduce refines read one of them
    refined (odd_k_instance)."""
    if k % 2 == 0:
        raise ValueError(f"odd-order reduction needs odd k, got {k}")
    if k < 5:
        raise ValueError(f"odd-order reduction needs k >= 5, got {k}")
    rs = solve_roots(k)
    inst = odd_k_instance(rs, M, working_prec_for(M))

    def refine(prec):
        return odd_k_instance(rs, M, prec).tau

    outcome = dp_reduce(inst, refine=refine)
    outcome.k = k
    outcome.certifications = dict(inst.certifications)
    outcome.nonvanishing_certified = outcome.epsilon.fr_lo() > 0
    return outcome
