"""Certified root systems of the order-k characteristic polynomial.

Psi_k(x) = x^k - 2x^{k-1} - x^{k-2} - ... - x - 1 is irreducible with a
single root gamma outside the unit circle.  Multiplying by (x - 1) gives
the sparse form

    delta_k(x)  = (x - 1) Psi_k(x) = x^{k+1} - 3x^k + x^{k-1} + 1
                = x^{k-2} x (x^2 - 3x + 1) + 1,
    delta_k'(x) = x^{k-2} ((k+1) x^2 - 3k x + (k-1)),

so both come from one power x^{k-2}, in O(log k) fixed-point
multiplications (_delta_fixed, which Newton, the inclusion radii and
check_dominant_bounds share), at the price of a spurious simple root at
x = 1 (delta_k'(1) = -k != 0).

solve_roots seeds each root from its closed-form position (below),
polishes each with Newton's method on delta_k (fixed point, below),
and certifies the result a posteriori with Newton inclusion disks
(Henrici, Applied and Computational Complex Analysis I, 6.4; Rump, JCAM
156, 2003).  For a polynomial p of degree d with roots r_i and a point z
with p'(z) != 0, p'(z)/p(z) = sum_i 1/(z - r_i); if every root were
farther than R = d |p(z)/p'(z)| from z the sum would have modulus below
d/R = |p'(z)/p(z)|.  So the closed disk D(z, R) holds at least one root.
Each centre gets an upper bound on R for delta_k (d = k + 1) from a
fixed-point evaluation of delta_k(z) and delta_k'(z) with a tracked
integer error bound (below); the exact node x = 1 is a root and gets
radius 0.  k + 1 pairwise disjoint disks each hold at least one
of the k + 1 roots of delta_k, so each holds exactly one, and the k
disks apart from the node isolate the k roots of Psi_k.

The seeds come from delta_k itself.  Near the unit circle, x = r e^(it)
gives x^2 - 3x + 1 = x (x + 1/x - 3), close to x (2 cos t - 3), so
delta_k(x) = 0 gives x^k close to 1 / (3 - 2 cos t): the roots other
than gamma sit near t_j = 2 pi j / k, r_j = (3 - 2 cos t_j)^(-1/k) for
j = 1..k-1 (j = 0 is the node at 1), and for even k, j = k/2 is the
negative real root near -5^(-1/k).  gamma, the one root outside the
unit circle, lies below phi^2 (check_dominant_bounds) and is seeded
there.  Every seed is then refined by Newton in Python floats
(_float_newton), in the scaled form

    delta_k(z) / delta_k'(z) = (z (z^2 - 3z + 1) + z^-(k-2))
                               / ((k+1) z^2 - 3k z + (k-1)),

both divided by z^(k-2), so gamma^k, which leaves the double range past
k = 737, never appears; a float result that is not finite is replaced
by the closed-form point.  The float seed, which carries about 53 bits,
converts to fixed point (below), each part truncated towards zero, and
goes straight to the polish, which reaches its stop in two steps.  Real
roots are seeded in real float arithmetic and get Y = 0; each j < k/2
gives the seed (X, Y) of the upper member of a pair, and the lower
member gets no seed of its own (Conjugate classes, below).

Newton runs on fixed-point Gaussian integers: z is the pair of Python
ints (X, Y) with z = (X + iY) 2^-P, products are floored to P fraction
bits, and the step delta_k conj(delta_k') / |delta_k'|^2 is a floor
division.  The polish runs at P = _scale(k, prec): prec + 16 guard
bits, plus one more for each bit of k past 9.  The radius floor eD of
_delta_fixed grows about linearly in k, and from about k = 1460 on it
outgrows 16 guard bits, so that no precision doubling brings a radius
under the label; every k < 512 keeps P = prec + 16.  Fixed point cannot
overflow, so gamma^k needs no care at large k.  A root stays in this
form from its seed to its certified disk: the polish, the radii, the
certification and refine_root take and return integers, and a
precision doubling moves the centres to the new P by a shift.  The
values come from _delta_fixed, the evaluation the radii use, error
bounds and all; its products are written out inline, since a function
call per product would cost about a third of an evaluation.  The
representation, not the precision, is what makes this fast: at k = 53
one evaluation costs about 10 us at 144 bits and 20 us at 406, against
about 150 us for a step at any precision in mpmath's pure-Python
backend (2-vCPU machine).

Newton stops by quadratic convergence: after the first step dz with
mag(dz) < mag(z) - (P + 2 bitlen(k)) / 2 it keeps that step's
iterate.  The error left is about the next step, |delta_k'' / 2
delta_k'| |dz|^2, and |delta_k'' / delta_k'| is of order k / |z| near a
root of delta_k (the roots are simple and of order 1/k apart), so
the iterate is off by about k |z| 2^-(P + 2 bitlen(k)), below
|z| 2^-P / k.  A confirming step below that size would cost one
more evaluation per class and change nothing that is certified:
Newton's output is not trusted, since the inclusion disks below certify
the centres it gives, whatever their error.  From a float seed each
conjugate class costs three evaluations: two steps at P and the
radius.

Radius soundness.  The radius comes from the same fixed-point
evaluation (_delta_fixed), with an integer E carried beside each value
(X, Y): the exact value lies within E 2^-P of (X + iY) 2^-P.  The
centre is exact (E = 0): it is the integer pair the polish gave, at
P = _scale(k, prec).  For exact values A + a and B + b with |a| <= eA and
|b| <= eB, (A + a)(B + b) - AB = A b + B a + a b, and each floored part
of a product is off by less than one unit, so:

    step                  value (units of 2^-P)     error E (units of 2^-P)
    A B                   both parts floored        2 + ceil((|A| eB + |B| eA
                                                      + eA eB) 2^-P)
    sum c_i A_i, c_i int  exact                     sum |c_i| e_i
    z^(k-2)               A B at each squaring      as A B
    R                     ceil((k+1) (ceil|D| + eD) 2^P / (floor|S| - eS))
    g_k: N = z - 1        exact at the centre       R of the input disk
    g_k: D = (k+1) z^2    z^2 as A B, with error    (k+1) e_zz + 3k R
      - 3k z + (k-1)        R on both factors
    g_k = N / D           N conj(D) / |D|^2, both   2 + ceil((R ceil|D|
                          parts floored               + ceil|N| eD) 2^P /
                                                      (floor|D| (floor|D|
                                                      - eD)))

|A| is bounded above by |X| + |Y|.  D and S are delta_k(z) and
delta_k'(z) in units of 2^-P; ceil|D| and floor|S| come from math.isqrt,
corrected in the required direction (_sqrt_bounds, which Ball's sqrt
and moduli share).  When floor|S| <= eS, delta_k'(z) is not certified
nonzero and certification fails.  Exact Gaussian-integer evaluation at
the dyadic centre (the test oracle) grows to k P bits, and Ball
arithmetic rounds and bounds every intermediate product on its own;
the fixed-point radii are also far tighter than the Ball ones.

The g_k rows are _gk_fixed, whose input is a disk (X, Y, R), not an
exact centre: every point of it lies within R of (X, Y), and |N/D -
N0/D0| <= (R |D0| + |N0| eD) / (|D0| (|D0| - eD)) for the centre values
N0, D0, since |D| >= |D0| - eD; the 2 covers the two floor divisions.
When floor|D| <= eD the denominator is not certified nonzero and it
raises ZeroDivisionEnclosure.  RootSystem.weight_disks and refine_root
call it on certified disks, eval_gk (no caller in the package) on a Ball
x converted to a disk: its midpoint exactly to (X, Y), its radius up.

Every test after the radii runs on the same integers, at one P for all
centres, and rounds only in its safe direction:

    quantity              integer (units of 2^-P)
    radius                R of the row above; the root Ball is the disk
                            (X, Y, R) 2^-P itself
    two disks disjoint    (Xi - Xj)^2 + (Yi - Yj)^2 > (Ri + Rj)^2, exact;
                            disks that touch meet
    |root|                in [isqrt(N) - R, isqrt(N) + [isqrt(N)^2 < N]
                            + R], N = X^2 + Y^2
    sum of roots          within sum R of sum X (sum Y is 0: the
                            disks come in mirror pairs)
    |product of roots|    product of the |root| intervals, each partial
                            product floored below and ceiled above

Disjointness is tested by a sweep (_overlapping_pairs) over the k disks
and the exact node (2^P, 0, 0) at 1: two disks that meet share a point
and so its real part, so only pairs whose integer spans [X - R, X + R]
meet go to the pair test (_disjoint).  The roots are sorted by exact N,
descending, conjugate partners upper first; adjacent conjugate classes
must have strictly separated |root| intervals, the first must lie above
1, every other below 1, and the first disk must be real with X > 0.
The real part of the root sum must enclose 2 (its imaginary part is 0
by construction) and the product of the |root| intervals must enclose
1.  Last, every radius must reach |centre| 2^-prec (the label).  No
Ball is compared or built: RootSystem keeps these integers, and builds
its root and weight Balls from them, each list on its first read; every
fact about a root modulus is read off the intervals [mod_lo, mod_hi].
Two functions import ball: _ball, which builds every Ball of a disk by
Ball.from_disk, and check_root_separation (Ball.exact), whose Ball.log
is the one place here that loads mpmath.  Every other function reads a
Ball only through its methods (eval_gk by Ball.to_disk, binet_reconstruct
by its ring operations on ints), so solving and checking a system loads
neither; check_root_bounds prints its one decimal value with
precision.sig_str.

Conjugate classes.  A root system is carried as one centre per
conjugate class, a real root or a pair of complex-conjugate roots, from
seed to certificate: the real classes first (gamma, then the negative
real root when k is even), then the upper member of each pair.  _polish
runs Newton once per class, in real arithmetic from (X, 0) for the real
classes, which are known by their index, and from (X, |Y|) for a pair;
real Newton keeps Y = 0.  _certify computes one inclusion radius per
class there.  delta_k has real coefficients, so
delta_k(conj z) = conj delta_k(z), and |delta_k / delta_k'| takes the
same value at z and at conj z: a bound on it at z bounds it at conj z,
so the mirror (X, -Y, R) of a class disk (X, Y, R) holds at least one
root too.  _certify emits a pair class as (X, |Y|, R) and its mirror
(X, -|Y|, R), and a real class as (X, 0, R); a real class with Y != 0
fails.  Pairing and realness then follow from the disjointness test,
which every disk, mirrors included, goes through (Rump, JCAM 156, 2003):

- the k + 1 disks, the node included, are pairwise disjoint, so each
  holds exactly one root of delta_k;
- the mirror of a disk holds the conjugate of that disk's root, so the
  two disks of a pair hold conjugate roots, and those roots are not
  real: a real one would lie in both disks, which are disjoint;
- a real class with Y = 0 is its own mirror, so its root equals its
  conjugate and is real.

Refinement.  A caller that needs a few roots more precisely than a
certified system gives them (the odd reduction reads one, at 390 bits)
refines just those with refine_root, by nested inclusion disks (Rump,
JCAM 156, 2003), instead of solving every class again.  The root's
certified disk rs.disks[i], (z0, R0) in units of 2^-rs.P, moves exactly
to P = _scale(k, prec) by a shift; Newton runs at P from z0 (from a 128-bit
system to 390 bits, two steps at 406 bits), and the new centre z1 gets
its inclusion radius R1, so D(z1, R1) holds at least one root of
delta_k.  The old disk D(z0, R0) is the one certification found
disjoint from the k others, so it holds exactly one root, the certified
one.  If R0 >= R1 and |z1 - z0| <= R0 - R1, decided exactly at P, the
new disk lies in the old one and holds that same root; otherwise, or
when delta_k'(z1) is not certified nonzero, or when R1 exceeds |z1|
2^-prec, the precision doubles (precision.escalate) and Newton runs again
from z0.  A lower member of a pair gets the exact mirror of its upper
one's refinement, and the root's weight is g_k over the new disk.
"""

from __future__ import annotations

import cmath
import math
import threading
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

from .precision import (
    PREC_START,
    OrderError,
    PrecisionExhausted,
    ZeroDivisionEnclosure,
    escalate,
    sig_str,
)

if TYPE_CHECKING:
    from .ball import Ball


class CertificationFailure(OrderError):
    """Internal: disks not disjoint / pairing ambiguous; escalate."""


@dataclass
class RootSystem:
    """All k roots, sorted by descending modulus, with the structural
    facts certified: modulus ordering (outside conjugate pairs),
    conjugate pairing, realness, and unique dominance, so the dominant
    root is always roots[0].  It keeps the integers certification decided
    on, in units of 2^-P: root i lies within R of (X + iY) 2^-P for
    disks[i] = (X, Y, R), and |root i| lies in [mod_lo[i], mod_hi[i]].
    roots and weights are lists of the Balls of the root and weight
    disks, each built on its first read."""

    dominant: ClassVar[int] = 0

    k: int
    disks: list
    conj_pairs: list
    real_roots: list
    prec: int
    P: int
    mod_lo: list
    mod_hi: list

    @property
    def gamma(self) -> Ball:
        return self.roots[self.dominant]

    @cached_property
    def roots(self) -> list:
        return [_ball(*disk, self.P, self.prec) for disk in self.disks]

    @cached_property
    def weight_disks(self) -> list:
        """g_k at each root as an integer disk (X, Y, R) at P, in root
        order: _gk_fixed on the disk of a real root and of the first
        member of each conjugate pair, and the exact mirror for the
        second (g_k has real coefficients, and the pair is certified
        conjugate, so the mirror encloses the partner's weight)."""
        k, P, disks = self.k, self.P, self.disks
        w = [None] * k
        for i in self.real_roots:
            w[i] = _gk_fixed(k, *disks[i], P)
        for a, b in self.conj_pairs:
            X, Y, R = w[a] = _gk_fixed(k, *disks[a], P)
            w[b] = X, -Y, R
        return w

    @cached_property
    def weights(self) -> list:
        """weight_disks as Balls, in root order: bit for bit what
        eval_gk gives at each root."""
        return [_ball(*disk, self.P, self.prec) for disk in self.weight_disks]


_cache_lock = threading.Lock()
_root_cache: dict = {}
_solve_precs: ContextVar = ContextVar("pellzero_solve_precs", default=None)


@contextmanager
def record_precisions():
    """Yield a list that collects the precision of every root system
    solve_roots returns inside the block, cache hits included, and the
    precision check_dominant_bounds settles at."""
    seen = []
    token = _solve_precs.set(seen)
    try:
        yield seen
    finally:
        _solve_precs.reset(token)


def _record(prec: int) -> None:
    seen = _solve_precs.get()
    if seen is not None:
        seen.append(prec)


def _scale(k: int, prec: int) -> int:
    """The fraction bits P of the fixed point that a system labelled prec
    is solved and certified at (module docstring): prec + 16, plus one
    for each bit of k past 9."""
    return prec + 16 + max(0, k.bit_length() - 9)


def _fix_float(t: float, P: int) -> int:
    """A float t as a fixed-point int: t 2^P, truncated towards zero."""
    n, d = t.as_integer_ratio()
    q = (abs(n) << P) // d
    return -q if n < 0 else q


def _ball(X: int, Y: int, R: int, P: int, prec: int) -> Ball:
    """Ball.from_disk: the Ball of the disk (X, Y, R) 2^-P, exactly.
    Every Ball of a disk that this module builds is built here."""
    from .ball import Ball
    return Ball.from_disk(X, Y, R, P, prec)


def _mag(X: int, Y: int) -> int:
    """mp.mag of (X + iY) 2^-P, plus P: |X + iY| < 2^_mag(X, Y)."""
    return max(X.bit_length(), Y.bit_length()) + bool(X and Y)


def _fmul(P: int, a: int, b: int, ea: int, c: int, d: int, ec: int):
    """(a + ib)(c + id) 2^-P with both parts floored, and its error bound
    in units of 2^-P: 2 for the two floors, plus the propagated
    ceil((|A| ec + |C| ea + ea ec) 2^-P), |A| bounded by |a| + |b|."""
    e = 2 - (-((abs(a) + abs(b)) * ec + (abs(c) + abs(d)) * ea + ea * ec) >> P)
    return (a * c - b * d) >> P, (a * d + b * c) >> P, e


def _delta_fixed(k: int, X: int, Y: int, P: int):
    """(delta_k(z), delta_k'(z)) at z = (X + iY) 2^-P in fixed point, as
    (DX, DY, eD, SX, SY, eS): each exact value lies within e 2^-P of
    (X + iY) 2^-P for its own (X, Y, e).  Both come from the one power
    z^(k-2), whose first square is z^2 itself.  Every product is taken
    inline with the floors and the error bound of _fmul, bit for bit,
    and an integer combination adds sum |c_i| e_i.  Real coefficients
    keep Y = 0 exactly 0."""
    one = 1 << P
    zzX, zzY, ezz = (X * X - Y * Y) >> P, (X * Y << 1) >> P, 2
    # w = z^(k-2) by binary powering, b running through z^(2^i); wX is
    # None until the first set bit.
    n = k - 2
    if n & 1:
        wX, wY, ew = X, Y, 0
    else:
        wX = None
    bX, bY, eb = zzX, zzY, ezz
    n >>= 1
    while n:
        ab = abs(bX) + abs(bY)
        if n & 1:
            if wX is None:
                wX, wY, ew = bX, bY, eb
            else:
                ew = 2 - (-((abs(wX) + abs(wY)) * eb + ab * ew + ew * eb) >> P)
                wX, wY = (wX * bX - wY * bY) >> P, (wX * bY + wY * bX) >> P
        n >>= 1
        if n:
            eb = 2 - (-((ab * eb << 1) + eb * eb) >> P)
            bX, bY = (bX * bX - bY * bY) >> P, (bX * bY << 1) >> P
    # d = z (z^2 - 3z + 1), its second factor off by ezz; s = delta_k' / z^(k-2).
    cX, cY = zzX - 3 * X + one, zzY - 3 * Y
    dX, dY = (X * cX - Y * cY) >> P, (X * cY + Y * cX) >> P
    ed = 2 - (-((abs(X) + abs(Y)) * ezz) >> P)
    sX, sY = (k + 1) * zzX - 3 * k * X + (k - 1) * one, (k + 1) * zzY - 3 * k * Y
    es = (k + 1) * ezz
    if wX is not None:
        aw = abs(wX) + abs(wY)
        dX, dY, ed = ((wX * dX - wY * dY) >> P, (wX * dY + wY * dX) >> P,
                      2 - (-(aw * ed + (abs(dX) + abs(dY)) * ew + ew * ed) >> P))
        sX, sY, es = ((wX * sX - wY * sY) >> P, (wX * sY + wY * sX) >> P,
                      2 - (-(aw * es + (abs(sX) + abs(sY)) * ew + ew * es) >> P))
    return dX + one, dY, ed, sX, sY, es


def _newton_step(k: int, X: int, Y: int, P: int):
    """delta_k(z) / delta_k'(z) at z = (X + iY) 2^-P, as a fixed-point
    pair: delta_k conj(delta_k') / |delta_k'|^2 from the values of
    _delta_fixed (Newton needs no error bounds), as a floor division."""
    dX, dY, _, sX, sY, _ = _delta_fixed(k, X, Y, P)
    norm = sX * sX + sY * sY
    return ((dX * sX + dY * sY) << P) // norm, ((dY * sX - dX * sY) << P) // norm


def _inclusion_radius(k: int, X: int, Y: int, P: int) -> int:
    """The Newton inclusion radius (k+1) |delta_k(z) / delta_k'(z)| at the
    centre z = (X + iY) 2^-P, bounded above from _delta_fixed, in units of
    2^-P: R = ceil((k+1) (ceil|D| + eD) 2^P / (floor|S| - eS)).  Raises
    CertificationFailure when floor|S| <= eS, i.e. delta_k'(z) is not
    certified nonzero."""
    dX, dY, eD, sX, sY, eS = _delta_fixed(k, X, Y, P)
    d2 = dX * dX + dY * dY
    num = math.isqrt(d2)
    if num * num < d2:
        num += 1
    den = math.isqrt(sX * sX + sY * sY) - eS
    if den <= 0:
        raise CertificationFailure(f"delta_k' not certified nonzero at ({X} + {Y}i) 2^-{P}")
    return -(-((k + 1) * (num + eD) << P) // den)


def _newton(k: int, X: int, Y: int, P: int, prec: int):
    """Newton on delta_k from z = (X + iY) 2^-P, stopped by quadratic
    convergence (module docstring): after the first step with mag(dz) <
    mag(z) - (S + 2 bitlen(k)) / 2, S = _scale(k, prec), whose iterate is
    kept, so it is off by about k |z| 2^-(S + 2 bitlen(k)) < |z| 2^-S / k.
    mag is _mag, compared on bit lengths."""
    stop = (_scale(k, prec) + 2 * k.bit_length()) // 2
    for _ in range(64):
        dX, dY = _newton_step(k, X, Y, P)
        X, Y = X - dX, Y - dY
        if _mag(dX, dY) < _mag(X, Y) - stop:
            break
    return X, Y


def _float_newton(k: int, z):
    """Newton on delta_k in Python floats from z, a float for a real root
    and a complex otherwise, by the scaled step of the module docstring,
    until a step is below |z| 2^-32 (64 steps at most).  Returns nan when
    a float operation overflows or divides by zero."""
    n = k - 2
    try:
        for _ in range(64):
            zz = z * z
            dz = (z * (zz - 3 * z + 1) + z ** -n) / ((k + 1) * zz - 3 * k * z + (k - 1))
            z -= dz
            if abs(dz) < abs(z) * 2.0 ** -32:
                break
    except (OverflowError, ZeroDivisionError):
        return math.nan
    return z


def _seed(k: int, z, P: int):
    """The closed-form point z refined by _float_newton, or z itself when
    that is not finite, as a fixed-point (X, Y) at P, each part truncated
    towards zero (_fix_float); Y = 0 for a float."""
    w = _float_newton(k, z)
    if not cmath.isfinite(w):
        w = z
    return _fix_float(w.real, P), _fix_float(w.imag, P)


def _initial_seeds(k: int, P: int):
    """One seed (X, Y) at P per conjugate class at its closed-form
    position (module docstring), refined by _seed: the real roots first,
    gamma and, for even k, the negative real root, with Y = 0, then the
    upper member of each pair."""
    seeds = [_seed(k, (3 + math.sqrt(5)) / 2, P)]
    if k % 2 == 0:
        seeds.append(_seed(k, -(5 ** (-1 / k)), P))
    for j in range(1, (k + 1) // 2):
        t = 2 * math.pi * j / k
        r = (3 - 2 * math.cos(t)) ** (-1 / k)
        seeds.append(_seed(k, complex(r * math.cos(t), r * math.sin(t)), P))
    return seeds


def _polish(k: int, seeds, prec: int):
    """Newton on delta_k at P = _scale(k, prec) fraction bits, once per
    conjugate class, from its seed at that P: from (X, 0) for the real
    classes, the first 2 - k % 2 as in _initial_seeds, and from (X, |Y|)
    for a pair.  Returns the class centres (X, Y) at P, in seed order."""
    P = _scale(k, prec)
    n_real = 2 - k % 2
    return [_newton(k, X, abs(Y) if c >= n_real else 0, P, prec)
            for c, (X, Y) in enumerate(seeds)]


def _disjoint(a, b) -> bool:
    """Whether the closed disks a = (X, Y, R) and b, all in units of one
    2^-P, are disjoint: their centres are more than Ra + Rb apart,
    compared exactly, so disks that touch meet."""
    dx, dy, r = a[0] - b[0], a[1] - b[1], a[2] + b[2]
    return dx * dx + dy * dy > r * r


def _sqrt_bounds(n: int):
    """(floor(sqrt(n)), ceil(sqrt(n))) for an int n >= 0."""
    s = math.isqrt(n)
    return s, s + (s * s < n)


def _modulus_bounds(X: int, Y: int, R: int):
    """(lo, hi) with every point of the disk (X, Y, R) of modulus in
    [lo, hi], all in units of one 2^-P: isqrt(N) - R and ceil(sqrt(N))
    + R, N = X^2 + Y^2."""
    lo, hi = _sqrt_bounds(X * X + Y * Y)
    return lo - R, hi + R


def _reaches(X: int, Y: int, R: int, prec: int) -> bool:
    """Whether R <= |X + iY| 2^-prec exactly: a disk labelled prec."""
    return (R << prec) ** 2 <= X * X + Y * Y


def _overlapping_pairs(disks):
    """Index pairs (i, j), i != j, of the disks (X, Y, R) whose real
    spans [X - R, X + R] meet.

    Two disks that share a point share its real part, so every pair left
    out is disjoint.  The disks are swept in order of their left
    endpoint, keeping those whose span still reaches the current one;
    the cost is O(n log n) plus the number of pairs returned."""
    pairs = []
    active = []
    for i in sorted(range(len(disks)), key=lambda i: disks[i][0] - disks[i][2]):
        X, _, R = disks[i]
        active = [(h, j) for h, j in active if h >= X - R]
        pairs.extend((j, i) for _, j in active)
        active.append((X + R, i))
    return pairs


def _certify(k: int, centres, prec: int) -> RootSystem:
    """The RootSystem of the class centres (X, Y) at P = _scale(k, prec),
    real classes first as in _initial_seeds, or CertificationFailure
    (module docstring, Radius soundness and Conjugate classes)."""
    P = _scale(k, prec)
    one = 1 << P
    n_real = 2 - k % 2
    for X, Y in centres[:n_real]:
        if Y:
            raise CertificationFailure(f"real class ({X} + {Y}i) 2^-{P} is off the axis")

    # Classes by descending exact |centre|^2, each with one inclusion
    # radius, taken at (X, |Y|); a pair is that disk and its mirror.
    classes = [(X, abs(Y), c < n_real) for c, (X, Y) in enumerate(centres)]
    classes.sort(key=lambda c: -(c[0] * c[0] + c[1] * c[1]))
    disks, conj_pairs, real_roots = [], [], []
    for X, Y, real in classes:
        R = _inclusion_radius(k, X, Y, P)
        if real:
            real_roots.append(len(disks))
            disks.append((X, 0, R))
        else:
            conj_pairs.append((len(disks), len(disks) + 1))
            disks += [(X, Y, R), (X, -Y, R)]

    # Pairwise disjointness, including the exact node at 1 (radius 0);
    # pairs with apart real spans are disjoint already.
    swept = disks + [(one, 0, 0)]
    for i, j in _overlapping_pairs(swept):
        if not _disjoint(swept[i], swept[j]):
            raise CertificationFailure(
                f"disks {min(i, j)},{max(i, j)} not certifiedly disjoint at {prec} bits")

    # Each true modulus lies in [isqrt(N) - R, ceil(sqrt(N)) + R] in units
    # of 2^-P; the intervals of adjacent classes must separate strictly.
    lo, hi = map(list, zip(*(_modulus_bounds(*disk) for disk in disks)))
    firsts = {a for a, _ in conj_pairs}
    for i in range(k - 1):
        if i not in firsts and not lo[i] > hi[i + 1]:
            raise CertificationFailure(f"modulus order inversion at sorted index {i}")

    # Unique dominance: first modulus above 1, all others below.
    if not lo[0] > one:
        raise CertificationFailure("dominant modulus not certified > 1")
    for i in range(1, k):
        if not hi[i] < one:
            raise CertificationFailure(f"modulus {i} not certified < 1")
    X, Y, _ = disks[0]
    if Y or X <= 0:
        raise CertificationFailure("dominant root is not real positive")

    # Coefficient sanity: sum of roots is 2 (its imaginary part is 0 by
    # construction), |product| is 1, taken as the product of the modulus
    # intervals (|prod r_i| = prod |r_i|), floored below and ceiled above.
    if abs(sum(X for X, _, _ in disks) - 2 * one) > sum(R for _, _, R in disks):
        raise CertificationFailure("root sum does not enclose 2")
    prod_lo = prod_hi = one
    for a, b in zip(lo, hi):
        prod_lo = prod_lo * max(a, 0) >> P
        prod_hi = -(-prod_hi * b >> P)
    if not prod_lo <= one <= prod_hi:
        raise CertificationFailure("|root product| does not enclose 1")

    if not all(_reaches(*disk, prec) for disk in disks):
        raise CertificationFailure(f"radii miss the label, |centre| 2^-{prec}")

    return RootSystem(k=k, disks=disks, conj_pairs=conj_pairs, real_roots=real_roots,
                      prec=prec, P=P, mod_lo=lo, mod_hi=hi)


def solve_roots(k: int, target_prec: int = PREC_START) -> RootSystem:
    """Certified root system of Psi_k at target_prec bits or more.

    Float seeds are polished by Newton on fixed-point integers and
    certified by Newton inclusion disks, Newton and the radius once per
    conjugate class and every disk tested (module docstring).  Any
    failure doubles the precision, and so does a radius above |centre|
    2^-prec, so the label prec is the accuracy the radii reach.  Results
    are cached for the process per order and starting precision
    max(target_prec, PREC_START): a request is answered only by the
    system solved for it, never by a finer one solved before."""
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    if target_prec < 64:
        raise ValueError("target_prec below 64 bits is not supported")
    key = k, max(target_prec, PREC_START)
    with _cache_lock:
        hit = _root_cache.get(key)
    if hit is not None:
        _record(hit.prec)
        return hit
    prec = key[1]
    seeds = _initial_seeds(k, _scale(k, prec))
    while True:
        centres = _polish(k, seeds, prec)
        with suppress(CertificationFailure):
            rs = _certify(k, centres, prec)
            break
        shift = escalate(prec) - prec
        seeds = [(X << shift, Y << shift) for X, Y in centres]
        prec += shift
    with _cache_lock:
        rs = _root_cache.setdefault(key, rs)
    _record(rs.prec)
    return rs


def refine_root(rs: RootSystem, i: int, prec: int):
    """(root, weight): rs.roots[i] as a Ball at prec bits or more, refined
    by nested inclusion disks (Refinement, in the module docstring), or
    rs.roots[i] itself when rs is that precise, and g_k over the root's
    integer disk, bit for bit eval_gk at the root.  record_precisions
    sees the precision of a refinement."""
    k = rs.k
    if prec <= rs.prec:
        return rs.roots[i], rs.weights[i]
    X0, Y0, R0 = rs.disks[i]
    lower, Y0 = Y0 < 0, abs(Y0)
    while True:
        P = _scale(k, prec)
        shift = P - rs.P
        x0, y0, r0 = X0 << shift, Y0 << shift, R0 << shift
        X, Y = _newton(k, x0, y0, P, prec)
        try:
            R1 = _inclusion_radius(k, X, Y, P)
        except CertificationFailure:
            pass
        else:
            r = r0 - R1
            if (r >= 0 and (X - x0) ** 2 + (Y - y0) ** 2 <= r * r
                    and _reaches(X, Y, R1, prec)):
                break
        prec = escalate(prec)
    _record(prec)
    GX, GY, GR = _gk_fixed(k, X, Y, R1, P)
    sign = -1 if lower else 1
    return _ball(X, sign * Y, R1, P, prec), _ball(GX, sign * GY, GR, P, prec)


def _gk_fixed(k: int, X: int, Y: int, R: int, P: int):
    """g_k over the disk (X, Y, R) at P, Y >= 0, as the integer disk
    (GX, GY, GR) at P: N0 conj(D0) / |D0|^2 at the centre, both parts
    floored, and the error bound of the g_k rows of the module docstring.
    Raises ZeroDivisionEnclosure when floor|D0| <= eD."""
    one = 1 << P
    zzX, zzY, ezz = _fmul(P, X, Y, R, X, Y, R)
    nX = X - one
    dX = (k + 1) * zzX - 3 * k * X + (k - 1) * one
    dY = (k + 1) * zzY - 3 * k * Y
    eD = (k + 1) * ezz + 3 * k * R
    d2 = dX * dX + dY * dY
    d_lo, d_hi = _modulus_bounds(dX, dY, 0)
    if d_lo <= eD:
        raise ZeroDivisionEnclosure(
            f"g_k denominator not certified nonzero on the disk ({X}, {Y}, {R}) 2^-{P}")
    n_hi = _modulus_bounds(nX, Y, 0)[1]
    return (((nX * dX + Y * dY) << P) // d2, ((Y * dX - nX * dY) << P) // d2,
            2 - (-((R * d_hi + n_hi * eD) << P) // (d_lo * (d_lo - eD))))


def eval_gk(k: int, x: Ball) -> Ball:
    """The Binet weight g_k(x) = (x - 1) / D(x), D(x) = (k+1) x^2 - 3k x
    + (k-1), enclosed over the Ball x in fixed point: x converts to the
    disk (X, Y, R) at P = _scale(k, prec), or finer when its midpoint has
    finer bits, by Ball.to_disk, and _gk_fixed bounds g_k on
    it (module docstring, the g_k rows).  The evaluation runs at (X, |Y|)
    and a lower point gets the exact mirror, so conjugate points get
    conjugate weights bit for bit.  Raises ZeroDivisionEnclosure when D
    is not certified nonzero on x (escalate and retry)."""
    X, Y, R, P = x.to_disk(_scale(k, x.prec))
    GX, GY, GR = _gk_fixed(k, X, abs(Y), R, P)
    return _ball(GX, -GY if Y < 0 else GY, GR, P, x.prec)


def binet_reconstruct(k: int, n: int, rs: RootSystem) -> Ball:
    """Sum of g_k(root) * root^n over all roots, as a Ball that must
    contain the exact integer term.  It is summed once per conjugate
    class, from rs.weights: g * r^n for a real root, and 2 Re(g * r^n)
    for a pair, since g_k has real coefficients and the partner's term
    is the conjugate.  The real part of a ball keeps the full disc
    radius, so it covers the dropped imaginary part.  Raises
    PrecisionExhausted when the enclosure is too wide to pin an integer
    (radius >= 0.4), and ValueError when k is not the order of rs."""
    if k != rs.k:
        raise ValueError(f"order k = {k} does not match the root system's k = {rs.k}")
    w = rs.weights
    terms = [w[i] * rs.roots[i].pow_int(n) for i in rs.real_roots]
    terms += [(w[a] * rs.roots[a].pow_int(n)).real() * 2
              for a, _ in rs.conj_pairs]
    ball = sum(terms[1:], terms[0])
    rad = (ball.fr_hi() - ball.fr_lo()) / 2
    if not rad < 0.4:
        raise PrecisionExhausted(
            f"reconstruction radius {sig_str(rad, 6)} cannot pin an "
            f"integer at prec {rs.prec}; re-solve roots at higher precision")
    return ball


def suggested_prec(k: int, n_hi: int) -> int:
    """Working precision comfortably above the growth of gamma^n."""
    return max(PREC_START, int(abs(n_hi) * 1.45) + 96)


# -- certified bound checks ------------------------------------------------

def _envelope_points(k: int, P: int):
    """(q_lo, q_hi) in units of 2^-P with q_lo >= phi^2 (1 - phi^-k) and
    q_hi <= phi^2.  s5 = floor(sqrt(5) 2^P) > sqrt(5) 2^P - 1, so
    phi^2 = (3 + sqrt 5) / 2 lies in [floor((3 2^P + s5) / 2),
    ceil((3 2^P + s5 + 1) / 2)] and 1/phi = (sqrt 5 - 1) / 2 is at least
    inv = floor((s5 - 2^P) / 2).  t, 2^P times k - 2 factors inv with
    each product floored, is at most phi^(2-k) 2^P, and q_lo is the
    upper end of phi^2 less t: phi^2 (1 - phi^-k) = phi^2 - phi^(2-k)."""
    one = 1 << P
    s5 = math.isqrt(5 << 2 * P)
    inv = (s5 - one) >> 1
    t = one
    for _ in range(k - 2):
        t = t * inv >> P
    return ((3 * one + s5 + 2) >> 1) - t, (3 * one + s5) >> 1


def _delta_sign(k: int, q: int, P: int) -> int:
    """The sign of delta_k(q 2^-P) when _delta_fixed certifies it, i.e.
    |D| > eD, and 0 when it does not."""
    D, _, eD, *_ = _delta_fixed(k, q, 0, P)
    return (D > eD) - (D < -eD)


def check_dominant_bounds(rs: RootSystem) -> bool:
    """Certifies phi^2 (1 - phi^-k) < gamma < phi^2 by two sign tests.

    rs certifies gamma as the only root of Psi_k of modulus above 1, and
    a simple one, so on (1, oo) delta_k = (x - 1) Psi_k vanishes only at
    gamma: it is negative below gamma and positive above, since it tends
    to +oo.  The tests run on the fixed-point _delta_fixed at the exact
    dyadic points q_lo >= phi^2 (1 - phi^-k) and q_hi <= phi^2 of
    _envelope_points, where q_hi > phi^2 - 2^(1-P) > 1.  If q_lo > 1 and
    delta_k(q_lo) < 0, then gamma > q_lo >= phi^2 (1 - phi^-k); if
    delta_k(q_hi) > 0, then gamma < q_hi <= phi^2.  So the check holds
    iff q_lo > 1, delta_k(q_lo) < 0 and delta_k(q_hi) > 0.  A sign
    counts only when _delta_fixed certifies it; near phi^2 the
    evaluation loses about 1.39k bits, so both tests escalate from
    rs.prec until both signs settle, and record_precisions sees the
    precision they settle at.
    """
    k = rs.k
    P = rs.prec
    while True:
        q_lo, q_hi = _envelope_points(k, P)
        lo, hi = _delta_sign(k, q_lo, P), _delta_sign(k, q_hi, P)
        if lo and hi:
            _record(P)
            return q_lo > 1 << P and lo < 0 < hi
        P = escalate(P)


def _distinct_modulus_pairs(rs: RootSystem):
    """Index pairs (i, j), i < j, whose moduli are certifiedly distinct.

    Sorted order plus adjacent-separation certification makes every
    non-conjugate pair distinct; conjugate partners share a modulus.
    """
    paired = {a: b for a, b in rs.conj_pairs} | {b: a for a, b in rs.conj_pairs}
    for i in range(rs.k):
        for j in range(i + 1, rs.k):
            if paired.get(i) == j:
                continue
            yield i, j


def _ratio_above(rs: RootSystem, i: int, j: int, f: int) -> bool:
    """Certified |root_i| / |root_j| > 1 + f 2^-P, from the modulus
    intervals: mod_lo[i] 2^P > mod_hi[j] (2^P + f), exactly."""
    return rs.mod_lo[i] << rs.P > rs.mod_hi[j] * ((1 << rs.P) + f)


def check_root_bounds(rs: RootSystem) -> dict:
    """Per-item report of the structural root inequalities:

    i   every distinct-modulus ratio exceeds 1 + 1.59^(-k^3)
    ii  the dominant weight g_k(gamma) lies in [0.276, 0.5]
    iii non-dominant weights satisfy |g_k(root_i)| < min(1, 2/(k-2))
    iv  the smallest modulus stays below 1 - log(gamma)/(2k) and its
        weight above log(gamma)/(2k(5k+2))
    v   equal-modulus roots are exactly the conjugate pairs

    Every item is decided, and every reported number computed, exactly on
    the integers of rs in units of 2^-P: the modulus intervals [mod_lo,
    mod_hi] and the weight disks (RootSystem.weight_disks).  No Ball is
    built.  Item i compares adjacent distinct moduli by _ratio_above,
    with f >= 1.59^(-k^3) 2^P: f = 1 once k^3 >= 2P, since 1.59^2 > 2,
    and ceil(100^(k^3) 2^P / 159^(k^3)) below that; min_margin is the
    least mod_lo[i] / mod_hi[j] less 1 + f 2^-P.  Item ii bounds the
    dominant weight disk (GX, 0, GR), which is real, by GX - GR and GX +
    GR; value is its midpoint GX 2^-P.  Item iii bounds each conjugate
    class's |g_k| above by ceil(sqrt(N)) + R from its weight disk, and
    max_weight is the greatest such bound.  Item iv decides a sufficient
    condition, which can fail where the item holds: ln gamma < gamma - 1
    <= c 2^-P for c = mod_hi[0] - 2^P, so c < 2k (2^P - mod_hi[-1])
    proves the cap, and c < 2k(5k+2) g_lo, g_lo = isqrt(N) - R from the
    last weight disk, proves the floor.
    """
    k, P = rs.k, rs.P
    one = 1 << P
    lo, hi = rs.mod_lo, rs.mod_hi
    wd = rs.weight_disks
    report = {}

    # A non-adjacent ratio is a product of adjacent ones, so adjacent distinct
    # moduli decide; a conjugate pair's first member stands for its modulus.
    partners = {b for _, b in rs.conj_pairs}
    distinct = [i for i in range(k) if i not in partners]
    adjacent = list(zip(distinct, distinct[1:]))
    n = k ** 3
    f = 1 if n >= 2 * P else -(-(100 ** n << P) // 159 ** n)
    i, j = min(adjacent, key=lambda ij: Fraction(lo[ij[0]], hi[ij[1]]))
    report["modulus_ratio_floor"] = {
        "holds": all(_ratio_above(rs, i, j, f) for i, j in adjacent),
        "min_margin": float(Fraction(lo[i], hi[j]) - 1 - Fraction(f, one))}

    GX, _, GR = wd[rs.dominant]
    report["dominant_weight_range"] = {
        "holds": 1000 * (GX - GR) > 276 * one and 2 * (GX + GR) < one,
        "value": sig_str(Fraction(GX, one), 12),
        "certified_for_k": "k >= 2",
    }

    bound = Fraction(1) if k <= 4 else Fraction(2, k - 2)
    worst = max(_modulus_bounds(*wd[i])[1] for i in distinct if i != rs.dominant)
    report["offdominant_weight_bound"] = {
        "holds": worst * bound.denominator < bound.numerator << P,
        "bound": str(bound), "max_weight": float(Fraction(worst, one))}

    c = hi[0] - one
    below_cap = c < 2 * k * (one - hi[-1])
    above_floor = c < 2 * k * (5 * k + 2) * _modulus_bounds(*wd[-1])[0]
    report["smallest_root_caps"] = {
        "modulus_below_cap": below_cap,
        "weight_above_floor": above_floor,
        "holds": below_cap and above_floor,
    }

    # (v) is structural: certification already forced every non-conjugate
    # pair apart and made each conjugate pair a disk and its exact mirror.
    report["equal_moduli_are_conjugates"] = {"holds": True,
                                             "pairs": list(rs.conj_pairs)}
    return report


def check_even_modulus_gap(rs: RootSystem) -> bool:
    """For even k: the gap |root_{k-1}| / |root_k| > 1 + k^(-k^2), by
    _ratio_above with f >= k^(-k^2) 2^P: f = 1 once k^2 floor(log2 k) >=
    P, and ceil(2^P / k^(k^2)) below that."""
    k, P = rs.k, rs.P
    if k % 2 == 1:
        raise ValueError(f"even-order check called with odd k={k}")
    n = k * k
    f = 1 if n * (k.bit_length() - 1) >= P else -(-(1 << P) // k ** n)
    return _ratio_above(rs, k - 2, k - 1, f)


def check_root_separation(rs: RootSystem) -> list[dict]:
    """Modulus-separation inequalities (Dubickas) for every pair of roots
    with certifiedly distinct moduli, evaluated in log space.

    Cases by realness of the pair: both nonreal, exactly one real, both
    real; each has its own explicit lower bound in the degree d = k and
    the Mahler measure M, which is gamma: rs certifies |gamma| > 1 and
    every other modulus < 1.  The gap |root_i| - |root_j| is the Ball of
    the exact interval [mod_lo[i] - mod_hi[j], mod_hi[i] - mod_lo[j]]
    2^-P, log M is the log of the Ball rs.gamma, and log10_margin is the
    difference of the two log midpoints over ln 10.
    """
    from .ball import Ball
    k, P = rs.k, rs.P
    p = rs.prec
    d = Fraction(k)
    log_m = rs.gamma.log()
    log_2 = Ball.exact(2, p).log()
    log_d = Ball.exact(k, p).log()
    real_set = set(rs.real_roots)
    out = []
    for i, j in _distinct_modulus_pairs(rs):
        g_lo, g_hi = rs.mod_lo[i] - rs.mod_hi[j], rs.mod_hi[i] - rs.mod_lo[j]
        gap = _ball(g_lo + g_hi, 0, g_hi - g_lo, P + 1, p)
        n_real = (i in real_set) + (j in real_set)
        if n_real == 0:
            case = "both_nonreal"
            # sqrt(3) / (2 C^(C/2+1) M^(d^3/2 - d^2 - d/2 + 1)), C = d(d-1)/2
            c_val = Fraction(k * (k - 1), 2)
            log_c = Ball.exact(c_val, p).log()
            log_thr = (Ball.exact(3, p).log() / 2 - log_2
                       - log_c * Ball.exact(c_val / 2 + 1, p)
                       - log_m * Ball.exact(d ** 3 / 2 - d ** 2 - d / 2 + 1, p))
        elif n_real == 1:
            case = "one_real"
            # 1 / (4 d^(d^2/2 + d + 1) M^(4d(d-1) + 1))
            log_thr = (-log_2 * 2
                       - log_d * Ball.exact(d ** 2 / 2 + d + 1, p)
                       - log_m * Ball.exact(4 * d * (d - 1) + 1, p))
        else:
            case = "both_real"
            # 1 / (2^(d^2/2 - 1) M^(d - 1))
            log_thr = (-log_2 * Ball.exact(d ** 2 / 2 - 1, p)
                       - log_m * Ball.exact(d - 1, p))
        log_diff = gap.log()
        holds = log_diff.gt(log_thr)
        margin = float(log_diff.fr_mid() - log_thr.fr_mid()) / math.log(10)
        out.append({"pair": (i, j), "case": case, "holds": bool(holds),
                    "log10_margin": margin})
    return out


def clear_cache():
    with _cache_lock:
        _root_cache.clear()
