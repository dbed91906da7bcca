"""The precision policy, the errors of certified arithmetic, and the
decimal layout of reported numbers, with no mpmath: the commands that
build no Ball (verify without --full, zeros, eval, chi, bound, roots)
load this module and never ball or reduction.

ball and reduction re-export the names they raise, so
pellzero.ball.PrecisionExhausted and pellzero.reduction.ReductionExhausted
are these classes."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

PREC_START = 128
PREC_CEILING = 1 << 20


class OrderError(Exception):
    """A failure confined to one order k: verify reports it as that
    order's ERROR record and goes on to the next order.  Each error
    class it covers keeps its own built-in base as well."""


class IndeterminateComparison(ArithmeticError, OrderError):
    """Two enclosures overlap, so the comparison cannot be certified."""


class ZeroDivisionEnclosure(ZeroDivisionError, OrderError):
    """Divisor enclosure contains zero; caller should escalate precision."""


class DomainError(ValueError, OrderError):
    """Enclosure leaves the domain of the requested function (e.g. log of
    an interval touching zero, or arg of a disc crossing the branch cut)."""


class PrecisionExhausted(RuntimeError, OrderError):
    """Certification failed at the configured precision ceiling."""


class ReductionExhausted(RuntimeError, OrderError):
    """No convergent past 6M certified eps > 0 within the attempt cap."""


def escalate(prec: int) -> int:
    nxt = prec * 2
    if nxt > PREC_CEILING:
        raise PrecisionExhausted(f"precision ceiling {PREC_CEILING} reached")
    return nxt


def sig_str(x, n: int) -> str:
    """The exact value x (an int, Fraction or Decimal) rounded half
    up to n >= 1 significant digits, in the layout of mpmath's nstr: fixed
    point while the leading digit's decimal exponent e has min(-(n//3), -5)
    < e < n, else a mantissa and e+XX or e-XX; trailing zeros stripped
    down to one digit after the point."""
    x = Fraction(x)
    if not x:
        return "0.0"
    sign = "-" if x < 0 else ""
    num, den = abs(x.numerator), x.denominator
    # e = floor(log10 |x|), from the bit lengths and at most two corrections.
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while num * 10 ** max(-e, 0) < den * 10 ** max(e, 0):
        e -= 1
    while num * 10 ** max(-e - 1, 0) >= den * 10 ** max(e + 1, 0):
        e += 1
    s = n - 1 - e
    num, den = num * 10 ** max(s, 0), den * 10 ** max(-s, 0)
    m = (2 * num + den) // (2 * den)
    if m == 10 ** n:
        m, e = m // 10, e + 1
    digits = str(Decimal(m))  # str(int) refuses past 4300 digits (Python 3.11+)
    if min(-(n // 3), -5) < e < n:
        if e < 0:
            digits, split = "0" * -e + digits, 1
        else:
            split = e + 1
        e = 0
    else:
        split = 1
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    if e == 0:
        return sign + text
    return f"{sign}{text}e{'+' if e > 0 else ''}{e}"
