"""Midpoint-radius (ball) arithmetic on integer disks.

A Ball is the closed disk (X + iY) 2^-Q +/- R 2^-Q: Python ints X, Y
and R >= 0 at a scale 2^-Q (Q any int), a real/complex marker, and the
working precision prec (bits) it is computed at.  A real Ball has Y = 0
and stands for the interval [X - R, X + R] 2^-Q; a complex Ball stands
for the disk, also when its imaginary part is 0.  Every operation
returns a ball holding the result of the operation at every point of
its input balls, so a Ball that starts as a true enclosure stays one.

These are the integer disks that pellzero.spectra certifies roots on.
Ball.from_disk builds the Ball of a disk (X, Y, R) 2^-P exactly, and
Ball.to_disk gives back the disk at P or finer that holds a Ball, its
midpoint exactly and its radius rounded up; the other readers are the
exact endpoints and midpoint fr_lo, fr_hi and fr_mid.  The verify path
loads this module only where a Ball is read: the odd reduction
(pellzero.reduction), the RootSystem views and the other Ball APIs of
spectra and effbounds.  The precision policy and the errors raised here
live in pellzero.precision; this module re-exports them.

Soundness argument
------------------
Ring operations, comparisons and conversions run on Python ints.  An
operation forms its result disk on the input integers, with an integer
radius at least the exact value of its row below, and then rounds once
(_round): when the largest of |X|, |Y| and R has n > prec bits, X and Y
are rounded to nearest at 2^n units, and R becomes ceil((R + |eX| +
|eY|) 2^-n), eX and eY the exact rounding errors of the parts.  So each
midpoint has at most prec significant bits and each radius is rounded
up.  Moduli are bounded by math.isqrt: |X + iY| lies in [isqrt(N),
isqrt(N) + [isqrt(N)^2 < N]], N = X^2 + Y^2 (spectra._modulus_bounds);
a bound that feeds only a radius is taken on the leading 32 bits
(_abs_bounds).  Below, |a| is the upper and |b|_lo the lower such bound
(exact for a real ball), all in the units of its ball, and each row is
in units of the result scale, before _round:

    op       midpoint                            radius
    a +- b   the sum, at max(Qa, Qb)             Ra + Rb
    a * b    the Gaussian product, at Qa + Qb    |a| Rb + |b| Ra + Ra Rb
    a / b    floor(N 2^s / |b|^2) per part,      ceil((Ra |b| + Rb |a|) 2^s
             N = a conj(b), at Qa - Qb + s         / (|b|_lo (|b|_lo - Rb)))
                                                   + 1, + 2 when complex
    |a|      lo + hi, one bit finer: the isqrt   hi - lo + 2 Ra
             bounds of |a| at prec + 2 bits
    sqrt a   s_lo + s_hi, one bit finer: isqrt   s_hi - s_lo
             bounds of sqrt(Xa - Ra) and
             sqrt(Xa + Ra) at 2 prec + 4 bits
    log a    f_lo + f_hi, one bit finer          f_hi - f_lo + (2 |f_lo| + 2 |f_hi|
                                                   + |f_lo + f_hi|) 2^(4-p)
    arg a    atan2 of the midpoint, p bits       2 Ra / (|a|_lo - Ra) + |mid| 2^(3-p)
    pi       pi, p bits                          |mid| 2^(3-p)

s makes the quotient about prec bits long.  The division row bounds
|a/b - ma/mb| = |(a - ma) mb - ma (b - mb)| / |b mb| with |b| >= |mb| -
rb > 0, and each floored part of the quotient is off by less than one
unit.  sqrt and log are increasing, so f([lo, hi]) = [f(lo), f(hi)].
arg uses |arg z - arg m| <= arcsin(ra/|m|) <= (pi/2) ra/|m|.
Negation, conjugation, the real part and add_error are exact, and
to_disk rounds only the radius, up.

The one remaining trust assumption is three mpmath.libmp leaves, the
only place this module imports mpmath: log (f_lo and f_hi are mpf_log
of the endpoints, rounded outward to p + 16 bits, at p + 16 bits), arg
(mpf_atan2 of the exact midpoint) and pi (mpf_pi).  They take exact
dyadic inputs built from the integers and return exact dyadic values.
libmp does not promise correct rounding for log, atan2 or pi; their
error is a few ulps in practice, and the covers, at least 2^19 ulps of
the p + 16-bit evaluation for log and 4 ulps for arg and pi, absorb it.

gt, lt and contains compare the exact endpoints X -/+ R of a real ball,
cross-multiplied by the denominator of a Fraction operand, so no
comparison rounds.
"""

from __future__ import annotations

import numbers
from fractions import Fraction

from .precision import (  # noqa: F401  (re-exported: the Ball API raises these)
    PREC_CEILING,
    PREC_START,
    DomainError,
    IndeterminateComparison,
    PrecisionExhausted,
    ZeroDivisionEnclosure,
    escalate,
    sig_str,
)
from .spectra import _modulus_bounds, _sqrt_bounds


def _round(X, Y, R, Q, prec, is_complex):
    """The Ball of the disk (X, Y, R) 2^-Q with at most prec bits in
    each of X, Y and R (module docstring)."""
    n = max(X.bit_length(), Y.bit_length(), R.bit_length()) - prec
    if n > 0:
        h = 1 << (n - 1)
        x, y = (X + h) >> n, (Y + h) >> n
        R = -(-(R + abs(X - (x << n)) + abs(Y - (y << n))) >> n)
        X, Y, Q = x, y, Q - n
    return Ball(X, Y, R, Q, prec, is_complex)


def _abs_bounds(X, Y):
    """(lo, hi) with lo <= |X + iY| <= hi, from the leading 32 bits of
    the larger part: the bounds feed radii, which need no more."""
    X, Y = abs(X), abs(Y)
    s = max(0, X.bit_length() - 32, Y.bit_length() - 32)
    up = s > 0
    lo = _modulus_bounds(X >> s, Y >> s, 0)[0]
    hi = _modulus_bounds((X >> s) + up, (Y >> s) + up, 0)[1]
    return lo << s, hi << s


def _floor_div(n, s, d):
    """floor(n 2^s / d) for d > 0."""
    return (n << s) // d if s >= 0 else n // (d << -s)


def _fraction(n, Q):
    return Fraction(n, 1 << Q) if Q >= 0 else Fraction(n << -Q)


def _raw(t):
    """(M, S): the raw libmp value t = (sign, man, exp, bc) as M 2^-S;
    an inf or nan (zero mantissa, nonzero exponent) raises ValueError."""
    sign, man, exp, _ = t
    if not man and exp:
        raise ValueError(f"non-finite mpmath value: {t}")
    return (-int(man) if sign else int(man)), -int(exp)


def _sign_vs(a, Q, n, d, Qv):
    """Sign of a 2^-Q - n / (d 2^Qv), exactly, for d > 0."""
    M = max(Q, Qv)
    x, y = (a * d) << (M - Q), n << (M - Qv)
    return (x > y) - (x < y)


class Ball:
    __slots__ = ("X", "Y", "R", "Q", "prec", "is_complex")

    def __init__(self, X, Y, R, Q, prec, is_complex):
        self.X, self.Y, self.R, self.Q, self.prec, self.is_complex = (
            X, Y, R, Q, prec, is_complex)

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, value, prec=PREC_START):
        """Ball around an int, a Fraction, or an mpmath mpf/mpc.

        ints, mpf/mpc values and Fractions exact at about `prec` bits
        are kept exactly (radius zero); any other Fraction becomes the
        centre of the `prec`-bit dyadic cell that holds it, with radius
        half the cell.
        """
        if isinstance(value, numbers.Integral):
            return cls(int(value), 0, 0, 0, prec, False)
        if isinstance(value, Fraction):
            n, d = value.numerator, value.denominator
            if d == 1:
                return cls(n, 0, 0, 0, prec, False)
            Q = prec - n.bit_length() + d.bit_length()
            q, r = divmod(n << Q, d) if Q >= 0 else divmod(n, d << -Q)
            if not r:
                return cls(q, 0, 0, Q, prec, False)
            return cls(2 * q + 1, 0, 1, Q + 1, prec, False)
        if hasattr(value, "_mpc_"):
            (X, QX), (Y, QY) = map(_raw, value._mpc_)
            Q = max(QX, QY)
            return cls(X << (Q - QX), Y << (Q - QY), 0, Q, prec, True)
        if hasattr(value, "_mpf_"):
            X, Q = _raw(value._mpf_)
            return cls(X, 0, 0, Q, prec, False)
        raise TypeError(f"cannot build an exact Ball from {type(value)}")

    @classmethod
    def from_disk(cls, X, Y, R, P, prec):
        """The Ball of the disk (X, Y, R) 2^-P, for ints X, Y and R >= 0,
        exactly: real when Y = 0, complex otherwise."""
        return cls(X, Y, R, P, prec, bool(Y))

    @classmethod
    def pi(cls, prec=PREC_START):
        from mpmath.libmp import mpf_pi, round_nearest
        M, S = _raw(mpf_pi(prec, round_nearest))
        return cls(M, 0, -(-abs(M) >> (prec - 3)), S, prec, False)

    # -- bookkeeping ---------------------------------------------------

    def __repr__(self):
        mid = sig_str(_fraction(self.X, self.Q), 12)
        if self.is_complex:
            mid += f" + {sig_str(_fraction(self.Y, self.Q), 12)}i"
        return f"Ball({mid} +/- {sig_str(_fraction(self.R, self.Q), 4)} @{self.prec}b)"

    def _abs_hi(self):
        """Upper bound on |midpoint|, in units of 2^-Q."""
        if self.is_complex:
            return _abs_bounds(self.X, self.Y)[1]
        return abs(self.X)

    # -- ring operations -----------------------------------------------

    def _coerce(self, other):
        return other if isinstance(other, Ball) else Ball.exact(other, self.prec)

    def _add(self, other, sign):
        other = self._coerce(other)
        Xa, Ya, Ra, Qa = self.X, self.Y, self.R, self.Q
        Xb, Yb, Rb, Q = other.X, other.Y, other.R, other.Q
        if Qa > Q:
            s, Q = Qa - Q, Qa
            Xb, Yb, Rb = Xb << s, Yb << s, Rb << s
        elif Qa < Q:
            s = Q - Qa
            Xa, Ya, Ra = Xa << s, Ya << s, Ra << s
        return _round(Xa + sign * Xb, Ya + sign * Yb, Ra + Rb, Q,
                      min(self.prec, other.prec),
                      self.is_complex or other.is_complex)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Ball(-self.X, -self.Y, self.R, self.Q, self.prec, self.is_complex)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return self._coerce(other)._add(self, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b, Ra = self.X, self.Y, self.R
        c, d, Rb = other.X, other.Y, other.R
        cplx = self.is_complex or other.is_complex
        R = Ra * Rb
        if Rb:
            R += self._abs_hi() * Rb
        if Ra:
            R += other._abs_hi() * Ra
        return _round(a * c - b * d, a * d + b * c, R, self.Q + other.Q,
                      min(self.prec, other.prec), cplx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        p = min(self.prec, other.prec)
        a, b, Ra = self.X, self.Y, self.R
        c, d, Rb = other.X, other.Y, other.R
        cplx = self.is_complex or other.is_complex
        b_lo, b_hi = _abs_bounds(c, d) if other.is_complex else (abs(c), abs(c))
        if b_lo <= Rb:
            raise ZeroDivisionEnclosure(f"divisor enclosure contains zero: {other!r}")
        s = p + max(c.bit_length(), d.bit_length()) - max(a.bit_length(), b.bit_length())
        D = c * c + d * d
        X, Y = _floor_div(a * c + b * d, s, D), _floor_div(b * c - a * d, s, D)
        R = 1 + cplx
        if Ra or Rb:
            num = Ra * b_hi + Rb * self._abs_hi()
            R -= _floor_div(-num, s, b_lo * (b_lo - Rb))
        return _round(X, Y, R, self.Q - other.Q + s, p, cplx)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def pow_int(self, n: int) -> "Ball":
        """self**n for any integer n, by repeated squaring on balls."""
        if n == 0:
            return Ball.exact(1, self.prec)
        base = self if n > 0 else Ball.exact(1, self.prec) / self
        n = abs(n)
        result = None
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- structure -----------------------------------------------------

    def conjugate(self):
        return Ball(self.X, -self.Y, self.R, self.Q, self.prec, self.is_complex)

    def real(self):
        return Ball(self.X, 0, self.R, self.Q, self.prec, False)

    def magnitude(self) -> "Ball":
        """Real ball enclosing |self|."""
        X, Y, R, Q, p = self.X, self.Y, self.R, self.Q, self.prec
        if not self.is_complex:
            return Ball(abs(X), 0, R, Q, p, False)
        t = max(0, p + 2 - max(X.bit_length(), Y.bit_length()))
        lo, hi = _modulus_bounds(X << t, Y << t, 0)
        return _round(lo + hi, 0, hi - lo + (R << (t + 1)), Q + t + 1, p, False)

    def to_disk(self, P):
        """(X, Y, R, Q): the disk (X, Y, R) 2^-Q that holds this ball, at
        Q = max(P, the finest bit of the midpoint), so the midpoint
        (X + iY) 2^-Q is exact, and R = ceil(rad 2^Q)."""
        X, Y, R, Q = self.X, self.Y, self.R, self.Q
        if Q <= P:
            return X << (P - Q), Y << (P - Q), R << (P - Q), P
        t = min([Q - P] + [(v & -v).bit_length() - 1 for v in (X, Y) if v])
        return X >> t, Y >> t, -(-R >> t), Q - t

    def add_error(self, extra) -> "Ball":
        """The same midpoint with `extra` (an int or a Fraction, rounded
        up) added to the radius."""
        extra = Fraction(extra)
        up = -_floor_div(-extra.numerator, self.Q, extra.denominator)
        return Ball(self.X, self.Y, self.R + up, self.Q, self.prec, self.is_complex)

    # -- real elementary functions --------------------------------------

    def _ends(self):
        """Exact endpoints (lo, hi) of a real ball, in units of 2^-Q."""
        if self.is_complex:
            raise TypeError("real-only operation on a complex ball")
        return self.X - self.R, self.X + self.R

    def sqrt(self):
        lo, hi = self._ends()
        if lo < 0:
            raise DomainError(f"sqrt of enclosure reaching below zero: {self!r}")
        p, Q = self.prec, self.Q
        e = max(0, 2 * p + 4 - hi.bit_length())
        e += (Q + e) & 1
        s_lo, s_hi = _sqrt_bounds(lo << e)[0], _sqrt_bounds(hi << e)[1]
        return _round(s_lo + s_hi, 0, s_hi - s_lo, (Q + e) // 2 + 1, p, False)

    def log(self):
        lo, hi = self._ends()
        if lo <= 0:
            raise DomainError(f"log of enclosure touching zero: {self!r}")
        from mpmath.libmp import (from_man_exp, mpf_log, round_ceiling, round_floor,
                                  round_nearest)
        p = self.prec
        wp = p + 16
        (a, Sa), (b, Sb) = (
            _raw(mpf_log(from_man_exp(v, -self.Q, wp, rnd), wp, round_nearest))
            for v, rnd in ((lo, round_floor), (hi, round_ceiling)))
        S = max(Sa, Sb)
        a, b = a << (S - Sa), b << (S - Sb)
        cover = -(-(2 * abs(a) + 2 * abs(b) + abs(a + b)) >> (p - 4))
        return _round(a + b, 0, b - a + cover, S + 1, p, False)

    def arg(self) -> "Ball":
        """Principal argument in (-pi, pi] of a complex enclosure.

        Raises DomainError when the disc contains zero or crosses the
        negative real axis (where the principal branch jumps).
        """
        X, Y, R, p = self.X, self.Y, self.R, self.prec
        lb = _modulus_bounds(X, Y, R)[0]
        if lb <= 0:
            raise DomainError("arg of enclosure containing zero")
        from mpmath.libmp import from_man_exp, fzero, mpf_atan2, mpf_pi, round_nearest
        if self.is_complex:
            if X < 0 and abs(Y) <= R:
                raise DomainError("arg enclosure crosses the branch cut")
            t = mpf_atan2(from_man_exp(Y, -self.Q), from_man_exp(X, -self.Q), p,
                          round_nearest)
        else:
            t = mpf_pi(p, round_nearest) if X < 0 else fzero
        M, S = _raw(t)
        if S < p + 4:
            M, S = M << (p + 4 - S), p + 4
        rad = -_floor_div(-2 * R, S, lb) - (-abs(M) >> (p - 3))
        return _round(M, 0, rad, S, p, False)

    # -- certified predicates (exact endpoints) -------------------------

    def fr_mid(self) -> Fraction:
        self._ends()
        return _fraction(self.X, self.Q)

    def fr_lo(self) -> Fraction:
        return _fraction(self._ends()[0], self.Q)

    def fr_hi(self) -> Fraction:
        return _fraction(self._ends()[1], self.Q)

    def contains(self, value) -> bool:
        """Exact containment of an int or Fraction in a real ball."""
        v = Fraction(value)
        n, d = v.numerator, v.denominator
        lo, hi = self._ends()
        return _sign_vs(lo, self.Q, n, d, 0) <= 0 <= _sign_vs(hi, self.Q, n, d, 0)

    def _above(self, lo, hi, other, sign):
        """Whether sign [lo, hi] 2^-Q > sign other (a Ball, int or
        Fraction) at every pair of points, or <= at every pair; raises
        IndeterminateComparison when neither is certain."""
        if isinstance(other, Ball):
            (v_lo, v_hi), d, Qv = other._ends(), 1, other.Q
        else:
            v = Fraction(other)
            v_lo = v_hi = v.numerator
            d, Qv = v.denominator, 0
        if sign < 0:
            v_lo, v_hi = -v_hi, -v_lo
        if _sign_vs(lo, self.Q, v_hi, d, Qv) > 0:
            return True
        if _sign_vs(hi, self.Q, v_lo, d, Qv) <= 0:
            return False
        raise IndeterminateComparison(f"{self!r} vs {other!r}")

    def gt(self, other) -> bool:
        """Certified self > other (other: Ball, int, or Fraction)."""
        lo, hi = self._ends()
        return self._above(lo, hi, other, 1)

    def lt(self, other) -> bool:
        lo, hi = self._ends()
        return self._above(-hi, -lo, other, -1)
