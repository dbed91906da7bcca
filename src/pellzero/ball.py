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
    log a    L_lo + L_hi + E_hi - E_lo, at       L_hi - L_lo + E_lo + E_hi
             W + 1: L of each endpoint at W
    arg a    A, atan2 of the midpoint at W + 1   2 Ra / (|a|_lo - Ra) + E_A
    pi       P, pi at W                          E_pi

s makes the quotient about prec bits long.  The division row bounds
|a/b - ma/mb| = |(a - ma) mb - ma (b - mb)| / |b mb| with |b| >= |mb| -
rb > 0, and each floored part of the quotient is off by less than one
unit.  sqrt and log are increasing, so f([lo, hi]) = [f(lo), f(hi)].
arg uses |arg z - arg m| <= arcsin(ra/|m|) <= (pi/2) ra/|m|.
Negation, conjugation, the real part and add_error are exact, and
to_disk rounds only the radius, up.

log, arg and pi are fixed-point sums at a scale 2^-W, with guard bits
past what the result needs (_work), each with an integer error bound:
L, A or P lies within E units of the exact value times 2^W (2^(W+1)
for A).  _odd_series sums t u^j / (2j + 1) over j >= 0 for a ratio
u = a / (b 2^s) with |u| <= 1/4, flooring each power p_j =
floor(p_(j-1) a / (b 2^s)) and each term p_j / (2j + 1).  A power is
then off by e_j <= e_(j-1)/4 + 1 < 4/3 units and a term by under
4/9 + 1; the tail from the first power that floors to 0 is below
(4/3)(1/3)(4/3) < 1 unit, so j terms are within E1 = 2j units.  With
t = x 2^W and u = -x^2 (or x^2) the sum is atan(x) 2^W (or atanh(x)
2^W): Brent and Zimmermann, Modern Computer Arithmetic, ch. 4.  The
exact ratios 1/25, 1/239^2 and 1/9 keep u exact and floor t, which moves
the sum by under f(x)/x <= 1.04 units; a ratio floor(t^2 2^-W) 2^-W is
under 2^-W below x^2, which moves the sum by under 1/4 unit.  So:

    pi     16 atan(1/5) - 4 atan(1/239) (Machin), cached per W:
           E_pi = 16 (E1 + 1) + 4 (E1' + 1)
    ln 2   2 atanh(1/3), cached per W: E_ln2 = 2 E1 + 3
    2^-k   atan(2^-k) at t = 2^(W-k) and u = -4^-k, both exact, cached
           per k and W: E_k = E1 <= W/k + 1
    log    of an endpoint v 2^-Q, with v 2^-b in [2/3, 4/3):
           (b - Q) ln 2 + 2 atanh(x), x = |v - 2^b| / (v + 2^b) <= 1/5
           floored (atanh' <= 25/24): E = |b - Q| E_ln2 + 2 E1 + 3
    arg    of the midpoint: x >= y >= 0 the larger and smaller of |X|
           and |Y|.  For k = 1 .. c, c = isqrt(W)/2, z = x + iy is
           turned by -atan(2^-k), z <- z (2^k - i), wherever y 2^k >= x;
           the product is exact, and since atan(2u) < 2 atan(u) the
           angle left after step k is below atan(2^-k).  So y/x < 2^-c,
           and the angle is the sum of the atan(2^-k) used and atan(y/x)
           (floored: one unit, with the ratio 5/4): E_A = 2 (sum E_k +
           E1 + 2) in units of 2^-(W+1), plus E_pi for each pi/2 that
           the octant adds or takes from it

The guard bits of W follow the smallest value a result can take:
|log| >= 0.28 when b != Q and at least |v - 2^b| 2^-(b+2) when b = Q;
arg >= pi/4 off the first octant and at least 2^(bitlen y - bitlen x)
in it.  So E stays below 2^-(p+2) of the result, and the radius of
each leaf exceeds its input term (2 Ra / (|a|_lo - Ra), or
(ln hi - ln lo) / 2) by at most (|mid| + that term) 2^(4-p).  No
operation calls a library transcendental, and the package imports no
mpmath.

gt, lt and contains compare the exact endpoints X -/+ R of a real ball,
cross-multiplied by the denominator of a Fraction operand, so no
comparison rounds.
"""

from __future__ import annotations

import functools
import math
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


def _work(bits):
    """The scale W for a result wanted to `bits` bits: guard bits that
    cover log2 of each error bound below."""
    return bits + bits.bit_length() + 10


def _odd_series(t, a, s, b):
    """(S, E): S within E units of the sum over j >= 0 of t u^j / (2j + 1),
    u = a / (b 2^s) with |u| <= 1/4, each power and term floored (module
    docstring): atan(t 2^-W) 2^W for u = -(t 2^-W)^2, atanh for +."""
    S, p, d = t, t, 1
    while p:
        p = (p * a >> s) // b
        d += 2
        S += p // d
    return S, d - 1


@functools.cache
def _pi(W):
    """(P, E): |P - pi 2^W| <= E, by Machin's formula."""
    (a, ea), (b, eb) = (_odd_series((1 << W) // m, -1, 0, m * m) for m in (5, 239))
    return 16 * a - 4 * b, 16 * ea + 4 * eb + 20


@functools.cache
def _atan_pow2(k, W):
    """(A, E): |A - atan(2^-k) 2^W| <= E, for 1 <= k < W."""
    return _odd_series(1 << (W - k), -1, 2 * k, 1)


@functools.cache
def _ln2(W):
    """(L, E): |L - ln(2) 2^W| <= E, as 2 atanh(1/3)."""
    s, e = _odd_series((1 << W) // 3, 1, 0, 9)
    return 2 * s, 2 * e + 3


def _ln(v, Q, p):
    """(L, E, W): |L - ln(v 2^-Q) 2^W| <= E for an int v > 0, to p bits
    of the result: the guard bits grow near 1, where b = Q and the value
    is about (v - 2^b) 2^-b (module docstring)."""
    b = (3 * v).bit_length() - 2
    n, d = b - Q, v - (1 << b)
    W = _work(p + (b + 3 - abs(d).bit_length() if d and not n else abs(n).bit_length()))
    t = (abs(d) << W) // (v + (1 << b))
    (s, e), (L2, E2) = _odd_series(t, t * t >> W, W, 1), _ln2(W)
    return n * L2 + (2 * s if d >= 0 else -2 * s), abs(n) * E2 + 2 * e + 3 * bool(d), W


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
        P, E = _pi(W := _work(prec))
        return _round(P, 0, E, W, prec, False)

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
        (a, ea, Wa), (b, eb, Wb) = (_ln(v, self.Q, self.prec) for v in (lo, hi))
        W = max(Wa, Wb)
        a, ea, b, eb = a << (W - Wa), ea << (W - Wa), b << (W - Wb), eb << (W - Wb)
        return _round(a + b + eb - ea, 0, b - a + ea + eb, W + 1, self.prec, False)

    def arg(self) -> "Ball":
        """Principal argument in (-pi, pi] of a complex enclosure.

        Raises DomainError when the disc contains zero or crosses the
        negative real axis (where the principal branch jumps).
        """
        X, Y, R, p = self.X, self.Y, self.R, self.prec
        lb = _modulus_bounds(X, Y, R)[0]
        if lb <= 0:
            raise DomainError("arg of enclosure containing zero")
        if self.is_complex and X < 0 and abs(Y) <= R:
            raise DomainError("arg enclosure crosses the branch cut")
        # The octant gives 0 <= y <= x; z = x + iy is then turned by
        # -atan(2^-k) wherever y 2^k >= x, exactly (module docstring).
        x, y, A, E = max(abs(X), abs(Y)), min(abs(X), abs(Y)), 0, 0
        W = _work(p + (x.bit_length() - y.bit_length() if y and X == x else 0))
        for k in range(1, math.isqrt(W) // 2 + 1):
            if y << k >= x:
                x, y = (x << k) + y, (y << k) - x
                a, e = _atan_pow2(k, W)
                A, E = A + a, E + e
        t = (y << W) // x
        S, e = _odd_series(t, -(t * t >> W), W, 1)
        A, E = (A + S) << 1, (E + e + 2 * bool(y)) << 1
        # P is pi/2 in units of 2^-(W+1); q = 1 when |Y| > |X|, + 2 when X < 0.
        P, EP = _pi(W)
        q = (abs(Y) > abs(X)) + 2 * (X < 0)
        A, E = (A, P - A, 2 * P - A, P + A)[q], E + (0, 1, 2, 1)[q] * EP
        return _round(-A if Y < 0 else A, 0, E - _floor_div(-2 * R, W + 1, lb), W + 1, p, False)

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
