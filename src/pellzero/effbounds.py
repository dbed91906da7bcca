"""Effective bounds in log space: heights, the Matveev linear-form
floor, the global per-parity index bounds, the implicit-log inversion,
and the sharpened even-order bound L_k from certified root data.

Everything that can reach magnitudes like k^(k^2) lives as a
LogMagnitude (base-10 log of a positive quantity); nothing here ever
materializes such a value as an integer.  The two operations whose
results feed exclusion claims (refined_even_bound, even_case_chain_check)
run on Ball arithmetic with outward rounding; the report-only bounds use
plain high-precision floats, whose rounding error is many orders below
the margins involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

import mpmath as mp

from .ball import Ball, IndeterminateComparison
from .spectra import RootSystem, eval_gk, mahler_measure

_WORK = 96


class HypothesisViolation(ValueError):
    """An inequality's stated hypothesis fails for the given inputs."""


@total_ordering
@dataclass(frozen=True)
class LogMagnitude:
    """Base-10 logarithm of a positive quantity."""

    log10_value: object
    exact_flag: bool = False

    @classmethod
    def from_ln(cls, ln_value, exact=False) -> "LogMagnitude":
        with mp.workprec(_WORK):
            return cls(mp.mpf(ln_value) / mp.log(10), exact)

    @classmethod
    def from_value(cls, value, exact=False) -> "LogMagnitude":
        with mp.workprec(_WORK):
            v = mp.mpf(value)
            if v <= 0:
                raise ValueError("LogMagnitude needs a positive value")
            return cls(mp.log10(v), exact)

    @property
    def ln_value(self):
        with mp.workprec(_WORK):
            return self.log10_value * mp.log(10)

    def __eq__(self, other):
        return isinstance(other, LogMagnitude) and \
            mp.mpf(self.log10_value) == mp.mpf(other.log10_value)

    def __lt__(self, other):
        return mp.mpf(self.log10_value) < mp.mpf(other.log10_value)

    def display(self) -> str:
        with mp.workprec(_WORK):
            expo = int(mp.floor(self.log10_value))
            mant = mp.power(10, self.log10_value - expo)
            return f"{mp.nstr(mant, 6)}e+{expo}" if expo >= 0 \
                else f"{mp.nstr(mant, 6)}e{expo}"

    def to_json(self) -> dict:
        return {"log10": mp.nstr(mp.mpf(self.log10_value), 20),
                "display": self.display()}


@dataclass(frozen=True)
class MatveevInstance:
    """Parameters of a two-sided linear-form-in-logs floor: t logs over
    a degree-d field, exponent bound B, height parameters A (each at
    least 0.16)."""

    t: int
    d: int
    B: object
    A: tuple

    def __post_init__(self):
        if self.t < 1 or self.d < 1:
            raise ValueError("t and d must be >= 1")
        with mp.workprec(_WORK):
            if mp.mpf(self.B) < 1:
                raise ValueError("B must be >= 1")
            object.__setattr__(self, "A", tuple(mp.mpf(a) for a in self.A))
        if len(self.A) != self.t:
            raise ValueError(f"need exactly t={self.t} height parameters")
        for a in self.A:
            if a < mp.mpf("0.16"):
                raise ValueError(f"height parameter {a} below the 0.16 floor")


def height_rational(p: int, q: int):
    """log max(|p'|, q') after reducing p/q to lowest terms, q' > 0."""
    fr = Fraction(p, q)
    with mp.workprec(_WORK):
        return mp.log(max(abs(fr.numerator), fr.denominator))


def matveev_lower_bound(m: MatveevInstance) -> LogMagnitude:
    """Magnitude C of the linear-form floor ln|L| > -C with

        C = 3 * 30^(t+4) * (t+1)^5.5 * d^2 (1 + ln d)(1 + ln(tB)) * prod A_j.

    The returned LogMagnitude is C itself (its log10); callers wanting
    the signed natural-log floor negate ln_value.
    """
    with mp.workprec(_WORK):
        ln_c = (mp.log(3) + (m.t + 4) * mp.log(30)
                + mp.mpf("5.5") * mp.log(m.t + 1)
                + 2 * mp.log(m.d) + mp.log(1 + mp.log(m.d))
                + mp.log(1 + mp.log(m.t * mp.mpf(m.B))))
        for a in m.A:
            ln_c += mp.log(a)
    return LogMagnitude.from_ln(ln_c)


def two_log_instance(k: int, n: int) -> MatveevInstance:
    """The instantiation used for the order-k pair of logarithms:
    t = 2, d = k^2, B = n + 1, A = (10 k^2 ln k, 1.8 k)."""
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    with mp.workprec(_WORK):
        a1 = 10 * k * k * mp.log(k)
        a2 = mp.mpf("1.8") * k
    return MatveevInstance(t=2, d=k * k, B=n + 1, A=(a1, a2))


def simplified_two_log_magnitude(k: int, n: int) -> LogMagnitude:
    """The flattened floor magnitude 2.1e14 * k^7 * ln(n+1) * (ln k)^2."""
    with mp.workprec(_WORK):
        ln_c = (mp.log(mp.mpf("2.1e14")) + 7 * mp.log(k)
                + mp.log(mp.log(n + 1)) + 2 * mp.log(mp.log(k)))
    return LogMagnitude.from_ln(ln_c)


def global_zero_index_bound(k: int) -> LogMagnitude:
    """Parity-dispatched global bound on the zero index magnitude:
    2 k^(k^2) ln(16 k^2) for even k, 7.5e14 * 1.59^(k^3) * k^10 (ln k)^2
    for odd k."""
    if k < 4:
        raise ValueError(f"global bound needs k >= 4, got {k}")
    with mp.workprec(_WORK):
        if k % 2 == 0:
            ln_b = mp.log(2) + k * k * mp.log(k) + mp.log(mp.log(16 * k * k))
        else:
            ln_b = (mp.log(mp.mpf("7.5e14")) + k ** 3 * mp.log(mp.mpf("1.59"))
                    + 10 * mp.log(k) + 2 * mp.log(mp.log(k)))
    return LogMagnitude.from_ln(ln_b)


def implicit_log_bound(r: int, H):
    """Inversion of L < H (ln L)^r: under the hypothesis H > (4 r^2)^r
    the solution satisfies L < 2^r H (ln H)^r; returns that value."""
    if r < 1:
        raise ValueError(f"exponent r must be >= 1, got {r}")
    with mp.workprec(_WORK):
        H = mp.mpf(H)
        if not H > mp.mpf(4 * r * r) ** r:
            raise HypothesisViolation(
                f"H={mp.nstr(H, 8)} does not exceed (4r^2)^r={(4 * r * r) ** r}")
        return mp.mpf(2) ** r * H * mp.log(H) ** r


def refined_even_bound(rs: RootSystem) -> int:
    """L_k = floor( ln(16 k^2) / ln(|second smallest| / |smallest|) ) for
    even k, rounded outward (numerator up, denominator down) so the
    result stays a valid upper bound on the zero index magnitude."""
    k = rs.k
    if k % 2 == 1:
        raise ValueError(f"refined bound applies to even k, got {k}")
    ratio = rs.moduli[-2] / rs.moduli[-1]
    log_ratio = ratio.log()
    num = Ball.exact(16 * k * k, rs.prec).log()
    den_lo = log_ratio.fr_lo()
    if den_lo <= 0:
        raise IndeterminateComparison(
            f"smallest-moduli gap not certified positive at prec {rs.prec}")
    return int(num.fr_hi() / den_lo)


def even_case_chain_check(rs: RootSystem, n: int) -> bool:
    """Certified test of (|second smallest|/|smallest|)^n < 16 k^2, the
    inequality whose failure caps the zero index at L_k for even k: it
    holds at n = L_k and fails at L_k + 1.  Also asserts the weight cap
    2k(5k+2)/ln(gamma) < 16 k^2 that the even-case argument consumes
    upstream."""
    k = rs.k
    if k % 2 == 1:
        raise ValueError(f"even-order chain check called with odd k={k}")
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    cap = Ball.exact(16 * k * k, rs.prec)
    log_gamma = mahler_measure(rs).log()
    weight_cap = Ball.exact(2 * k * (5 * k + 2), rs.prec) / log_gamma
    if not weight_cap.lt(cap):
        raise ArithmeticError(
            f"weight cap 2k(5k+2)/ln(gamma) not below 16k^2 at k={k}")
    ratio = rs.moduli[-2] / rs.moduli[-1]
    power = ratio.pow_int(n)
    if power.lt(cap):
        if n > refined_even_bound(rs):
            raise ArithmeticError(
                "chain holds past the refined bound; rounding bug")
        return True
    if power.gt(cap):
        return False
    raise IndeterminateComparison(
        f"power vs cap indeterminate at prec {rs.prec}; escalate")


def dominant_height(rs: RootSystem) -> Ball:
    """Height of the dominant root: ln(Mahler measure) / k, as a Ball."""
    return mahler_measure(rs).log() / rs.k


def weight_height_check(rs: RootSystem) -> dict:
    """Numeric check that the height of the dominant Binet weight stays
    below 5 ln k.  The weight g_k(gamma) generates a field of degree at
    most k; an upper estimate for its height is

        (1/k) * ( ln prod_i max(1, |D(root_i)|) + sum_i ln^+ |g_k(root_i)| )

    with D the weight's denominator polynomial, since prod D(root_i) is
    (up to sign) the leading coefficient of the weight's characteristic
    polynomial over Q.  Sampled, not proven; report with margin.
    """
    k = rs.k
    with mp.workprec(max(rs.prec, _WORK)):
        h_est = mp.mpf(0)
        for root in rs.roots:
            z = root.mid
            den_val = k * (z * z - 3 * z + 1) + (z * z - 1)
            h_est += mp.log(max(mp.mpf(1), abs(den_val)))
            g = eval_gk(k, root).mid
            h_est += mp.log(max(mp.mpf(1), abs(g)))
        h_est /= k
        bound = 5 * mp.log(k)
        return {
            "k": k,
            "height_estimate": float(h_est),
            "bound": float(bound),
            "holds": bool(h_est < bound),
        }
