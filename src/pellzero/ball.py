"""Midpoint-radius (ball) arithmetic on raw mpmath.libmp values with
directed rounding.

A Ball stores an mpf or mpc midpoint, a nonnegative mpf radius, and the
working precision p (bits) its midpoint is computed at.  It stands for
every number in the closed disc (for a real midpoint, the interval) of
that radius around the midpoint.  Every operation returns a ball holding
the result of the operation at every point of its input balls, so a
Ball that starts as a true enclosure stays one.

This is the one module that holds mpmath values: no other module of
the package imports mpmath or reads a raw libmp value, and a Ball
crosses to integers only here.  Ball.from_disk builds the Ball of an
integer disk (X, Y, R) 2^-P, exactly, and Ball.to_disk gives back the
disk at P or finer that holds a Ball, its midpoint exactly and its
radius rounded up; the other readers are the exact endpoints and
midpoint fr_lo, fr_hi and fr_mid.  The verify path decides on integers
and loads this module only where a Ball is read: the odd reduction
(pellzero.reduction), the RootSystem views and the other Ball APIs of
spectra and effbounds.  The precision policy and the errors raised
here live in pellzero.precision, which has no mpmath; this module
re-exports them.

Soundness argument
------------------
An operation computes its midpoint from the input midpoints at
p = min(input precisions), rounding to nearest, and its radius as the
sum of two bounds:

* the propagated error, a bound on |f(x) - f(mid)| over the inputs,
  built from the input radii and from bounds on the midpoint moduli;
* the midpoint error, a bound on |f(mid) - computed midpoint|.

Radius arithmetic runs on raw mpfs with 30-bit mantissas (_RADIUS_BITS)
and round_ceiling, on nonnegative values only, so each computed radius
is at least the exact value of its formula.  The quantities a radius
formula divides by or subtracts (|b| in a divisor, _lb) are rounded
with round_floor.  Moduli |x + iy| come from x^2 + y^2 on 32-bit scaled
integers, rounded in the required direction, and an integer square root
corrected in the same direction (_hypot).  mpf_hypot and mpc_abs are not
used for bounds: they round x^2 + y^2 by truncation at p+4 bits before
the square root, so even with round_ceiling they can land below |z|.
No step relies on a multiplicative safety factor, and no operation
opens an mpmath precision context.

Midpoint error.  For a nonzero raw mpf c at p bits let ulp(c) = 2^(e-p),
where 2^(e-1) <= |c| < 2^e; for a complex c take the largest e of its
nonzero parts.  libmp forms each real part of a sum or product exactly
and rounds it once, to nearest (mpf_add, mpf_mul, mpc_add, mpc_sub,
mpc_mul_mpf, and mpc_mul, whose four products are exact).  So each part
is off by at most ulp/2 of itself, the complex error is below
sqrt(2) ulp/2 < ulp(mid), and ulp(mid) <= |mid| 2^(1-p).  A part that
rounds to zero is exact: mpf has no underflow.  mpf_div rounds once;
mpc_div also truncates its intermediate sums at p+10 bits, which adds
below 2^-7 ulp per part, so division is charged 2 ulp(mid).

    op          midpoint, p bits, nearest        radius, each term rounded up
    a + b       mpf_add / mpc_add                ra + rb + ulp
    a - b       mpf_add(_sub) / mpc_sub          ra + rb + ulp
    a * b       mpf_mul / mpc_mul / mpc_mul_mpf  |a| rb + |b| ra + ra rb + ulp
    a / b       mpf_div / mpc_div / mpc_div_mpf  (ra |b| + rb |a|)
                                                   / (|b|_lo (|b|_lo - rb)) + 2 ulp
    |a|         mpf_abs (exact) / mpc_abs        ra (+ ulp when complex: the
                                                   truncated sum costs < ulp/8)
    f(a), f in  f(lo), f(hi) at p+16 bits;       (f(hi) - f(lo))/2 + ulp + cover
    sqrt, log   mid = (f(lo) + f(hi))/2          cover = (|f(lo)| + |f(hi)|
                                                   + |mid|) 2^(4-p)
    arg a       mpf_atan2                        2 ra / (|a|_lo - ra) + |mid| 2^(3-p)
    pi          mpf_pi                           |mid| 2^(3-p)

|a| and |b| above are upper bounds on the midpoint moduli, |b|_lo a lower
one.  The division term bounds |a/b - ma/mb| = |(a - ma) mb - ma (b - mb)|
/ |b mb| with |b| >= |mb| - rb > 0.  For f = sqrt and log the input
interval's endpoints lo, hi are rounded outward at p+16 bits and f is
increasing, so f([lo, hi]) = [f(lo), f(hi)].  libmp does not promise
correct rounding for log, atan2 or pi (sqrt is correctly rounded);
their error is a few ulps in practice, and the covers, at least 2^19
ulps of the p+16-bit evaluation for f and 4 ulps for arg and pi, absorb
it.  arg uses |arg z - arg m| <= arcsin(ra/|m|) <= (pi/2) ra/|m|.

Endpoints mid -/+ rad of real balls are dyadic and are formed exactly
(mpf_add and mpf_sub without a precision), so gt, lt and contains
compare them exactly with mpf_cmp, cross-multiplying by the denominator
of a Fraction operand.  No comparison rounds.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (
    MPZ_ONE,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_div,
    mpc_div_mpf,
    mpc_mul,
    mpc_mul_mpf,
    mpc_sub,
    mpf_abs,
    mpf_add,
    mpf_atan2,
    mpf_cmp,
    mpf_div,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_ceiling,
    round_floor,
    round_nearest,
    round_up,
)

from .precision import (  # noqa: F401  (re-exported: the Ball API raises these)
    PREC_CEILING,
    PREC_START,
    DomainError,
    IndeterminateComparison,
    PrecisionExhausted,
    ZeroDivisionEnclosure,
    escalate,
)

# Mantissa bits of radii and of the modulus bounds that feed them.
_RADIUS_BITS = 30

_MPF = mp.mpf
_MPC = mp.mpc
_ZERO = mp.mpf(0)
_new = object.__new__


def _mpf(t):
    x = _new(_MPF)
    x._mpf_ = t
    return x


def _mpc(z):
    x = _new(_MPC)
    x._mpc_ = z
    return x


def _add_up(a, b):
    """a + b rounded up, for nonnegative raw mpfs."""
    if not a[1]:
        return b
    if not b[1]:
        return a
    return mpf_add(a, b, _RADIUS_BITS, round_ceiling)


def _mul_up(a, b):
    """a * b rounded up, for nonnegative raw mpfs."""
    return mpf_mul(a, b, _RADIUS_BITS, round_ceiling)


def _ulp(t, p):
    """ulp of a raw mpf at p bits (0 for zero): the error bound for the
    round-to-nearest that produced it, with a factor 2 to spare."""
    return (0, MPZ_ONE, t[2] + t[3] - p, 1) if t[1] else fzero


def _ulp_c(z, p):
    re, im = z
    if not im[1]:
        return _ulp(re, p)
    if not re[1]:
        return _ulp(im, p)
    return (0, MPZ_ONE, max(re[2] + re[3], im[2] + im[3]) - p, 1)


def _hypot(x, y, up):
    """sqrt(x^2 + y^2) for raw mpfs, rounded up (up=1) or down (up=0).

    Both parts are scaled to integers below 2^32 against the larger
    one's top bit, rounding in the requested direction; the sum of
    squares is then exact and the integer square root is corrected in
    the same direction."""
    rnd = round_ceiling if up else round_floor
    if not y[1]:
        return mpf_abs(x, _RADIUS_BITS, rnd)
    if not x[1]:
        return mpf_abs(y, _RADIUS_BITS, rnd)
    e = max(x[2] + x[3], y[2] + y[3]) - 32
    s = 0
    for _, man, exp, _ in (x, y):
        shift = exp - e
        man = man << shift if shift >= 0 else (man >> -shift) + up
        s += man * man
    r = math.isqrt(s)
    if up and r * r < s:
        r += 1
    return from_man_exp(r, e, _RADIUS_BITS, rnd)


def _raw_c(x):
    return x._mpc_ if isinstance(x, _MPC) else (x._mpf_, fzero)


def _ub(value):
    """Raw mpf upper bound on an int or a Fraction."""
    fr = Fraction(value)
    return from_rational(fr.numerator, fr.denominator, _RADIUS_BITS,
                         round_ceiling)


def _cmp_q(t, v: Fraction) -> int:
    """Sign of t - v for a raw mpf t, exactly."""
    if v.denominator != 1:
        t = mpf_mul(t, from_int(v.denominator))
    return mpf_cmp(t, from_int(v.numerator))


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf (mpf values are dyadic), read
    off its raw (sign, man, exp, bc) as man 2^exp.  A zero mantissa with
    a nonzero exponent is libmp's inf or nan."""
    sign, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)  # gmpy2 backend hands out mpz
    if not man:
        if exp:
            raise ValueError(f"non-finite mpf: {x}")
        return Fraction(0)
    man = -man if sign else man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def neg_exact(x):
    """Exact negation: mpmath's unary minus rounds to the ambient
    context precision, which silently truncates high-precision mids."""
    if isinstance(x, _MPC):
        return _mpc((mpf_neg(x._mpc_[0]), mpf_neg(x._mpc_[1])))
    return _mpf(mpf_neg(x._mpf_))


def conj_exact(x):
    """Exact conjugation (same ambient-rounding pitfall as negation)."""
    if isinstance(x, _MPC):
        return _mpc((x._mpc_[0], mpf_neg(x._mpc_[1])))
    return x


class Ball:
    __slots__ = ("mid", "rad", "prec")

    def __init__(self, mid, rad, prec):
        self.mid = mid
        self.rad = rad
        self.prec = prec

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, value, prec=PREC_START):
        """Ball around an int, Fraction, or mpf/mpc, with exact radius.

        ints and mpf/mpc values are kept exactly (radius zero); a
        Fraction is rounded to `prec` bits and the radius is its exact
        representation error, rounded up.
        """
        if isinstance(value, (_MPF, _MPC)):
            return cls(value, _ZERO, prec)
        if isinstance(value, numbers.Integral):
            return cls(_mpf(from_int(int(value))), _ZERO, prec)
        if not isinstance(value, Fraction):
            raise TypeError(f"cannot build an exact Ball from {type(value)}")
        num, den = from_int(value.numerator), from_int(value.denominator)
        mid = mpf_div(num, den, prec, round_nearest)
        err = mpf_abs(mpf_sub(num, mpf_mul(mid, den)))
        rad = mpf_div(err, den, _RADIUS_BITS, round_ceiling)
        return cls(_mpf(mid), _mpf(rad), prec)

    @classmethod
    def from_disk(cls, X, Y, R, P, prec):
        """The Ball of the disk (X, Y, R) 2^-P, for ints X, Y and R >= 0:
        midpoint (X + iY) 2^-P, an mpf when Y = 0 and an mpc otherwise,
        and radius R 2^-P, both exact.  The values are built raw:
        mp.mpf((man, exp)) would round them to the ambient 53 bits."""
        re = from_man_exp(X, -P)
        mid = _mpf(re) if not Y else _mpc((re, from_man_exp(Y, -P)))
        return cls(mid, _mpf(from_man_exp(R, -P)), prec)

    @classmethod
    def pi(cls, prec=PREC_START):
        mid = mpf_pi(prec, round_nearest)
        rad = mpf_shift(mpf_abs(mid, _RADIUS_BITS, round_ceiling), 3 - prec)
        return cls(_mpf(mid), _mpf(rad), prec)

    # -- bookkeeping ---------------------------------------------------

    @property
    def is_complex(self):
        return isinstance(self.mid, _MPC)

    def __repr__(self):
        return f"Ball({mp.nstr(self.mid, 12)} +/- {mp.nstr(self.rad, 4)} @{self.prec}b)"

    def _mag(self, up):
        """Raw bound on |mid|: upper for up=1, lower for up=0."""
        m = self.mid
        if isinstance(m, _MPC):
            return _hypot(*m._mpc_, up)
        return mpf_abs(m._mpf_, _RADIUS_BITS,
                       round_ceiling if up else round_floor)

    def _lb(self):
        """Raw lower bound on |value| (nonpositive: reaches zero)."""
        return mpf_sub(self._mag(0), self.rad._mpf_, _RADIUS_BITS, round_floor)

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(other, prec):
        if isinstance(other, Ball):
            return other
        if type(other) is int:
            return Ball(_mpf(from_int(other)), _ZERO, prec)
        return Ball.exact(other, prec)

    def _add(self, other, sub):
        other = self._coerce(other, self.prec)
        p = min(self.prec, other.prec)
        a, b = self.mid, other.mid
        if isinstance(a, _MPC) or isinstance(b, _MPC):
            z = (mpc_sub if sub else mpc_add)(_raw_c(a), _raw_c(b), p,
                                              round_nearest)
            mid, err = _mpc(z), _ulp_c(z, p)
        else:
            t = mpf_add(a._mpf_, b._mpf_, p, round_nearest, sub)
            mid, err = _mpf(t), _ulp(t, p)
        rad = _add_up(_add_up(self.rad._mpf_, other.rad._mpf_), err)
        return Ball(mid, _mpf(rad), p)

    def __add__(self, other):
        return self._add(other, 0)

    __radd__ = __add__

    def __neg__(self):
        return Ball(neg_exact(self.mid), self.rad, self.prec)

    def __sub__(self, other):
        return self._add(other, 1)

    def __rsub__(self, other):
        return self._coerce(other, self.prec)._add(self, 1)

    def __mul__(self, other):
        other = self._coerce(other, self.prec)
        p = min(self.prec, other.prec)
        a, b = self.mid, other.mid
        if isinstance(a, _MPC):
            if isinstance(b, _MPC):
                z = mpc_mul(a._mpc_, b._mpc_, p, round_nearest)
            else:
                z = mpc_mul_mpf(a._mpc_, b._mpf_, p, round_nearest)
            mid, rad = _mpc(z), _ulp_c(z, p)
        elif isinstance(b, _MPC):
            z = mpc_mul_mpf(b._mpc_, a._mpf_, p, round_nearest)
            mid, rad = _mpc(z), _ulp_c(z, p)
        else:
            t = mpf_mul(a._mpf_, b._mpf_, p, round_nearest)
            mid, rad = _mpf(t), _ulp(t, p)
        ra, rb = self.rad._mpf_, other.rad._mpf_
        if rb[1]:
            rad = _add_up(rad, _mul_up(self._mag(1), rb))
        if ra[1]:
            rad = _add_up(rad, _mul_up(other._mag(1), ra))
            if rb[1]:
                rad = _add_up(rad, _mul_up(ra, rb))
        return Ball(mid, _mpf(rad), p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other, self.prec)
        p = min(self.prec, other.prec)
        rb = other.rad._mpf_
        b_lo = other._mag(0)
        lb_b = mpf_sub(b_lo, rb, _RADIUS_BITS, round_floor)
        if lb_b[0] or not lb_b[1]:
            raise ZeroDivisionEnclosure(
                f"divisor enclosure contains zero: {other!r}")
        a, b = self.mid, other.mid
        if isinstance(b, _MPC):
            z = mpc_div(_raw_c(a), b._mpc_, p, round_nearest)
            mid, err = _mpc(z), _ulp_c(z, p)
        elif isinstance(a, _MPC):
            z = mpc_div_mpf(a._mpc_, b._mpf_, p, round_nearest)
            mid, err = _mpc(z), _ulp_c(z, p)
        else:
            t = mpf_div(a._mpf_, b._mpf_, p, round_nearest)
            mid, err = _mpf(t), _ulp(t, p)
        rad = mpf_shift(err, 1)
        ra = self.rad._mpf_
        num = _mul_up(ra, other._mag(1)) if ra[1] else fzero
        if rb[1]:
            num = _add_up(num, _mul_up(rb, self._mag(1)))
        if num[1]:
            den = mpf_mul(b_lo, lb_b, _RADIUS_BITS, round_floor)
            rad = _add_up(rad, mpf_div(num, den, _RADIUS_BITS, round_ceiling))
        return Ball(mid, _mpf(rad), p)

    def __rtruediv__(self, other):
        return self._coerce(other, self.prec) / self

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
        return Ball(conj_exact(self.mid), self.rad, self.prec)

    def real(self):
        mid = self.mid.real if self.is_complex else self.mid
        return Ball(mid, self.rad, self.prec)

    def magnitude(self) -> "Ball":
        """Real ball enclosing |self|."""
        if not self.is_complex:
            return Ball(_mpf(mpf_abs(self.mid._mpf_)), self.rad, self.prec)
        t = mpc_abs(self.mid._mpc_, self.prec, round_nearest)
        rad = _add_up(self.rad._mpf_, _ulp(t, self.prec))
        return Ball(_mpf(t), _mpf(rad), self.prec)

    def to_disk(self, P):
        """(X, Y, R, Q): the disk (X, Y, R) 2^-Q that holds this ball, at
        Q = max(P, the finest bit of the midpoint), so the midpoint
        (X + iY) 2^-Q is exact, and R = ceil(rad 2^Q)."""
        re, im = _raw_c(self.mid)
        Q = max([P] + [-t[2] for t in (re, im) if t[1]])
        X, Y = ((-t[1] if t[0] else t[1]) << (t[2] + Q) for t in (re, im))
        _, m, e, _ = self.rad._mpf_
        shift = e + Q
        return X, Y, (m << shift if shift >= 0 else -(-m >> -shift)), Q

    def add_error(self, extra) -> "Ball":
        """The same midpoint with `extra` (an int or a Fraction, rounded
        up) added to the radius."""
        return Ball(self.mid, _mpf(_add_up(self.rad._mpf_, _ub(extra))),
                    self.prec)

    # -- real elementary functions (monotone, endpoint evaluation) ------

    def _endpoints(self):
        """Raw endpoints [lo, hi] rounded outward at prec+16 bits."""
        if self.is_complex:
            raise TypeError("real-only operation on a complex ball")
        wp = self.prec + 16
        m, r = self.mid._mpf_, self.rad._mpf_
        return mpf_sub(m, r, wp, round_floor), mpf_add(m, r, wp, round_ceiling)

    def _monotone(self, fn, lo, hi):
        """Enclosure of fn over [lo, hi] for an increasing libmp function
        fn(x, prec, rnd), evaluated at prec+16 bits; the radius covers the
        half width, the evaluation error and the midpoint rounding."""
        p = self.prec
        flo = fn(lo, p + 16, round_nearest)
        fhi = fn(hi, p + 16, round_nearest)
        mid = mpf_shift(mpf_add(flo, fhi, p, round_nearest), -1)
        half = mpf_shift(mpf_abs(mpf_sub(fhi, flo, _RADIUS_BITS, round_up)), -1)
        cover = _add_up(_add_up(mpf_abs(flo, _RADIUS_BITS, round_ceiling),
                                mpf_abs(fhi, _RADIUS_BITS, round_ceiling)),
                        mpf_abs(mid, _RADIUS_BITS, round_ceiling))
        rad = _add_up(_add_up(half, mpf_shift(cover, 4 - p)), _ulp(mid, p))
        return Ball(_mpf(mid), _mpf(rad), p)

    def sqrt(self):
        lo, hi = self._endpoints()
        if lo[0] and lo[1]:
            raise DomainError(f"sqrt of enclosure reaching below zero: {self!r}")
        return self._monotone(mpf_sqrt, lo, hi)

    def log(self):
        lo, hi = self._endpoints()
        if lo[0] or not lo[1]:
            raise DomainError(f"log of enclosure touching zero: {self!r}")
        return self._monotone(mpf_log, lo, hi)

    def arg(self) -> "Ball":
        """Principal argument in (-pi, pi] of a complex enclosure.

        Raises DomainError when the disc contains zero or crosses the
        negative real axis (where the principal branch jumps).
        """
        lb = self._lb()
        if lb[0] or not lb[1]:
            raise DomainError("arg of enclosure containing zero")
        p = self.prec
        r = self.rad._mpf_
        if self.is_complex:
            re, im = self.mid._mpc_
            if re[0] and re[1] and mpf_cmp(mpf_abs(im), r) <= 0:
                raise DomainError("arg enclosure crosses the branch cut")
            mid = mpf_atan2(im, re, p, round_nearest)
        else:
            mid = mpf_pi(p, round_nearest) if self.mid._mpf_[0] else fzero
        rad = _add_up(
            mpf_div(mpf_shift(r, 1), lb, _RADIUS_BITS, round_ceiling),
            mpf_shift(mpf_abs(mid, _RADIUS_BITS, round_ceiling), 3 - p))
        return Ball(_mpf(mid), _mpf(rad), p)

    # -- certified predicates (exact endpoints) -------------------------

    def _lo(self):
        """Exact lower endpoint of a real ball, as a raw mpf."""
        if self.is_complex:
            raise TypeError("real-only predicate on a complex ball")
        return mpf_sub(self.mid._mpf_, self.rad._mpf_)

    def _hi(self):
        if self.is_complex:
            raise TypeError("real-only predicate on a complex ball")
        return mpf_add(self.mid._mpf_, self.rad._mpf_)

    def fr_mid(self):
        if self.is_complex:
            raise TypeError("real-only predicate on a complex ball")
        return mpf_to_fraction(self.mid)

    def fr_lo(self) -> Fraction:
        return mpf_to_fraction(_mpf(self._lo()))

    def fr_hi(self) -> Fraction:
        return mpf_to_fraction(_mpf(self._hi()))

    def contains(self, value) -> bool:
        """Exact containment of an int or Fraction in a real ball."""
        v = Fraction(value)
        return _cmp_q(self._lo(), v) <= 0 <= _cmp_q(self._hi(), v)

    def gt(self, other) -> bool:
        """Certified self > other (other: Ball, int, or Fraction)."""
        if isinstance(other, Ball):
            if mpf_cmp(self._lo(), other._hi()) > 0:
                return True
            if mpf_cmp(self._hi(), other._lo()) <= 0:
                return False
            raise IndeterminateComparison(f"{self!r} vs {other!r}")
        v = Fraction(other)
        if _cmp_q(self._lo(), v) > 0:
            return True
        if _cmp_q(self._hi(), v) <= 0:
            return False
        raise IndeterminateComparison(f"{self!r} vs {v}")

    def lt(self, other) -> bool:
        if isinstance(other, Ball):
            return other.gt(self)
        v = Fraction(other)
        if _cmp_q(self._hi(), v) < 0:
            return True
        if _cmp_q(self._lo(), v) >= 0:
            return False
        raise IndeterminateComparison(f"{self!r} vs {v}")


def ball_sum(balls):
    """Sum of an iterable of Balls (exact 0 ball for empty input)."""
    balls = list(balls)
    if not balls:
        return Ball.exact(0, PREC_START)
    acc = balls[0]
    for b in balls[1:]:
        acc = acc + b
    return acc

