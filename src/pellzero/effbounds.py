"""Effective bounds in log space: the Matveev linear-form floor, the
global per-parity index bounds, the implicit-log inversion, and the
sharpened even-order bound L_k from certified root data.

Everything that can reach magnitudes like k^(k^2) lives as a
LogMagnitude (base-10 log of a positive quantity); nothing here ever
materializes such a value as an integer.  The report-only bounds are
computed on Decimals in a private 30-digit context (_CTX), whose ln,
log10 and exp are correctly rounded; a bound loses a few units in the
30th digit, far below the 20 digits a LogMagnitude reports
(precision.sig_str) and the margins involved.  The bounds that feed
exclusion claims, L_k and the reduction's R and small-linear-form test,
have the shape floor(ln x / ln y) and are decided on integers by
log_floor, not by logs.  even_case_chain_check decides its weight cap
on integers too, and raises its ratio to the n-th power by Ball.pow_int
with outward rounding, on Python ints: nothing here loads mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import total_ordering

from .precision import IndeterminateComparison, sig_str
from .spectra import RootSystem

_CTX = Context(prec=30)
_LN2, _LN10, _LN30, _LN159, _LN75E14 = (
    _CTX.ln(Decimal(v)) for v in ("2", "10", "30", "1.59", "7.5e14"))


class HypothesisViolation(ValueError):
    """An inequality's stated hypothesis fails for the given inputs."""


@total_ordering
@dataclass(frozen=True)
class LogMagnitude:
    """Base-10 logarithm of a positive quantity, as a Decimal."""

    log10_value: Decimal

    @classmethod
    def from_ln(cls, ln_value) -> "LogMagnitude":
        return cls(_CTX.divide(Decimal(ln_value), _LN10))

    @classmethod
    def from_value(cls, value) -> "LogMagnitude":
        v = Decimal(value)
        if v <= 0:
            raise ValueError("LogMagnitude needs a positive value")
        return cls(_CTX.log10(v))

    @property
    def ln_value(self) -> Decimal:
        return _CTX.multiply(self.log10_value, _LN10)

    def __eq__(self, other):
        return isinstance(other, LogMagnitude) and self.log10_value == other.log10_value

    def __lt__(self, other):
        return self.log10_value < other.log10_value

    def display(self) -> str:
        expo = math.floor(self.log10_value)
        mant = _CTX.power(10, _CTX.subtract(self.log10_value, expo))
        return f"{sig_str(mant, 6)}e{expo:+d}"

    def __str__(self):
        """log10_value to 20 significant digits, the form records carry."""
        return sig_str(self.log10_value, 20)

    def to_json(self) -> dict:
        return {"log10": str(self), "display": self.display()}


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
        if Decimal(self.B) < 1:
            raise ValueError("B must be >= 1")
        object.__setattr__(self, "A", tuple(Decimal(a) for a in self.A))
        if len(self.A) != self.t:
            raise ValueError(f"need exactly t={self.t} height parameters")
        for a in self.A:
            if a < Decimal("0.16"):
                raise ValueError(f"height parameter {sig_str(a, 15)} below the 0.16 floor")


def matveev_lower_bound(m: MatveevInstance) -> LogMagnitude:
    """Magnitude C of the linear-form floor ln|L| > -C with

        C = 3 * 30^(t+4) * (t+1)^5.5 * d^2 (1 + ln d)(1 + ln(tB)) * prod A_j.

    The returned LogMagnitude is C itself (its log10); callers wanting
    the signed natural-log floor negate ln_value.
    """
    with localcontext(_CTX):
        ln_d = Decimal(m.d).ln()
        ln_c = (Decimal(3).ln() + (m.t + 4) * _LN30
                + Decimal("5.5") * Decimal(m.t + 1).ln()
                + 2 * ln_d + (1 + ln_d).ln()
                + (1 + (m.t * Decimal(m.B)).ln()).ln())
        for a in m.A:
            ln_c += a.ln()
    return LogMagnitude.from_ln(ln_c)


def global_zero_index_bound(k: int) -> LogMagnitude:
    """Parity-dispatched global bound on the zero index magnitude:
    2 k^(k^2) ln(16 k^2) for even k, 7.5e14 * 1.59^(k^3) * k^10 (ln k)^2
    for odd k."""
    if k < 4:
        raise ValueError(f"global bound needs k >= 4, got {k}")
    with localcontext(_CTX):
        ln_k = Decimal(k).ln()
        if k % 2 == 0:
            ln_b = _LN2 + k * k * ln_k + (4 * _LN2 + 2 * ln_k).ln()
        else:
            ln_b = _LN75E14 + k ** 3 * _LN159 + 10 * ln_k + 2 * ln_k.ln()
    return LogMagnitude.from_ln(ln_b)


def implicit_log_bound(r: int, H) -> Decimal:
    """Inversion of L < H (ln L)^r: under the hypothesis H > (4 r^2)^r
    the solution satisfies L < 2^r H (ln H)^r; returns that value."""
    if r < 1:
        raise ValueError(f"exponent r must be >= 1, got {r}")
    H = Decimal(H)
    if not H > (4 * r * r) ** r:
        raise HypothesisViolation(
            f"H={sig_str(H, 8)} does not exceed (4r^2)^r={(4 * r * r) ** r}")
    with localcontext(_CTX):
        return 2 ** r * H * H.ln() ** r


def log_floor(x: Fraction, y: Fraction) -> int:
    """The largest n with y^n <= x (x >= 1, y > 1), or more where
    rounding cannot tell: y^(n+1) > x is certified for the n returned.
    With y - 1 above 2^-(g+1), n has at most B = g + bitlen(bitlen(num
    x)) + 1 bits, and every value is a lower bound in units of 2^-P, P =
    128 + 2B + g, each product floored: y^(2^j) by squaring until it
    exceeds x, then n bit by bit from the top, a bit kept while the
    product stays at most x.  A bit left out is certified: y^(m + 2^j) >
    x for the bits m above it, and m + 2^j is n + 1 for the lowest."""
    if x < 1 or y <= 1:
        raise ValueError(f"log_floor needs x >= 1 and y > 1, got {x}, {y}")
    g = max(y.denominator.bit_length() - (y.numerator - y.denominator).bit_length(), 0)
    P = 128 + 2 * (g + x.numerator.bit_length().bit_length() + 1) + g
    top = x.numerator << P
    powers = [(y.numerator << P) // y.denominator]
    while powers[-1] * x.denominator <= top:
        powers.append(powers[-1] ** 2 >> P)
    n, p = 0, 1 << P
    for j in reversed(range(len(powers))):
        q = p * powers[j] >> P
        if q * x.denominator <= top:
            n, p = n + (1 << j), q
    return n


def refined_even_bound(rs: RootSystem) -> int:
    """L_k = floor( ln(16 k^2) / ln(|second smallest| / |smallest|) ) for
    even k, by log_floor at the ratio's lower end mod_lo[-2] / mod_hi[-1],
    so it bounds the zero index magnitude; IndeterminateComparison when
    that end is not above 1."""
    k = rs.k
    if k % 2 == 1:
        raise ValueError(f"refined bound applies to even k, got {k}")
    if not rs.mod_lo[-2] > rs.mod_hi[-1]:
        raise IndeterminateComparison(
            f"smallest-moduli gap not certified positive at prec {rs.prec}")
    return log_floor(Fraction(16 * k * k), Fraction(rs.mod_lo[-2], rs.mod_hi[-1]))


def even_case_chain_check(rs: RootSystem, n: int) -> bool:
    """Certified test of (|second smallest|/|smallest|)^n < 16 k^2, the
    inequality whose failure caps the zero index at L_k for even k: it
    fails at L_k + 1, and holds at n = L_k unless the power there equals
    16 k^2 exactly.  The ratio is the Ball of the exact quotient interval
    [mod_lo[-2] / mod_hi[-1], mod_hi[-2] / mod_lo[-1]], raised to n by
    Ball.pow_int and compared by Ball.lt: True when the power lies below
    the cap, False when its lower end reaches it, and
    IndeterminateComparison when it straddles the cap.  Also asserts the
    weight cap 2k(5k+2)/ln(gamma) < 16 k^2 that the even-case argument
    consumes upstream, on integers: ln(1 + x) >= 2x / (2 + x) for
    x = gamma - 1 >= (mod_lo[0] - 2^P) 2^-P, and 2x / (2 + x) >
    (5k + 2) / (8k) iff x (11k - 2) > 10k + 4."""
    k = rs.k
    if k % 2 == 1:
        raise ValueError(f"even-order chain check called with odd k={k}")
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    from .ball import Ball
    cap = 16 * k * k
    one = 1 << rs.P
    if not (rs.mod_lo[0] - one) * (11 * k - 2) > (10 * k + 4) * one:
        raise ArithmeticError(
            f"weight cap 2k(5k+2)/ln(gamma) not below 16k^2 at k={k}")
    r_lo = Fraction(rs.mod_lo[-2], rs.mod_hi[-1])
    r_hi = Fraction(rs.mod_hi[-2], rs.mod_lo[-1])
    ratio = Ball.exact((r_lo + r_hi) / 2, rs.prec).add_error((r_hi - r_lo) / 2)
    if not ratio.pow_int(n).lt(cap):
        return False
    if n > refined_even_bound(rs):
        raise ArithmeticError("chain holds past the refined bound; rounding bug")
    return True

